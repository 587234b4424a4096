(** Differential probing for discrimination, in the style of Glasnost
    (Dischinger et al.) and Wehe.

    The paper's §1 observes that a user experiencing degraded VoIP "might
    not bother to switch" — partly because degradation is hard to
    attribute. This module is the measurement side of that story: a
    client and a cooperating measurement server exchange two interleaved
    flows that differ {e only} in how classifiable they are — the {b app}
    flow looks exactly like the target application (port, payload
    markers, rate), the {b control} flow has identical sizes and timing
    but randomized payload on an unremarkable port. A policy that
    classifies applications hits the app flow and not the control; the
    differential in loss and delay is the evidence.

    Experiment E10 runs this detector from inside a discriminating and a
    clean access ISP, and then over neutralized paths, where the
    differential disappears because the ISP can no longer tell the two
    flows apart. *)

type profile = {
  profile_name : string;
  dst_port : int;
  pps : int;
  payload_of : int -> string;  (** sequence number -> app-layer bytes *)
}

val voip_profile : profile
(** 50 pps, 160-byte frames carrying SIP/RTP-style markers on port
    5060 — exactly what a DPI classifier keys on. *)

val control_of : seed:string -> profile -> profile
(** Same sizes and rate, payload replaced by pseudorandom bytes, port
    moved to an ephemeral-range port. *)

type flow_measure = {
  sent : int;
  received : int;
  loss : float;
  mean_latency_ms : float;
  throughput_bps : float;
}

type verdict = {
  probe_name : string;
  app : flow_measure;
  control : flow_measure;
  discriminated : bool;
  reason : string;  (** human-readable evidence, e.g. "loss 44.8% vs 0.2%" *)
}

val run :
  Net.Network.t ->
  client:Net.Host.t ->
  server:Net.Host.t ->
  ?duration_s:float ->
  profile ->
  (verdict -> unit) ->
  unit
(** Schedules both flows (control offset by half an interval), measures
    at the server, and calls the callback once the engine drains past the
    probe window. The caller runs the engine. *)
