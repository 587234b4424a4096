(** Traffic analysis from packet sizes and timing — the attack the paper
    explicitly leaves open: "our current design does not consider traffic
    analysis attacks that infer application types or packet ownships
    using packet size and timing information" (§2).

    The analyser consumes only {!Net.Observation.t}s (sizes, timestamps,
    addresses — all of which survive neutralization) and classifies each
    source's encrypted aggregate by rate regularity and size profile:
    constant small packets betray VoIP, large steady packets betray
    video, bursty mixed sizes betray web. Experiment E9 measures its
    accuracy against neutralized traffic, and then against traffic shaped
    by {!Core.Masking} — the "adaptive traffic masking" countermeasure
    the paper says it would adopt if this attack mattered in practice. *)

type features = {
  packets : int;
  pps : float;
  mean_size : float;
  std_size : float;
  small_fraction : float;  (** packets under 300 bytes *)
  large_fraction : float;  (** packets of 1000+ bytes *)
  iat_cv : float;
      (** coefficient of variation of inter-arrival times: near 0 for a
          paced source, near/above 1 for bursty traffic *)
}

type verdict = Looks_voip | Looks_video | Looks_web | Unknown

type t

val create : unit -> t

val observe : t -> Net.Observation.t -> unit
(** Feed every packet the adversary can see (pass [observe t] to
    {!Net.Network.add_tap}); only shim-protocol (encrypted) packets from
    each distinct source are analysed. *)

val sources : t -> Net.Ipaddr.t list

val features_of : t -> Net.Ipaddr.t -> features option
(** [None] until a source has at least 10 packets. *)

val classify_source : t -> Net.Ipaddr.t -> verdict
val pp_verdict : Format.formatter -> verdict -> unit
