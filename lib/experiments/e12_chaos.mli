(** E12: chaos — the neutralizer nearest the client is killed mid-flow
    on a seeded schedule, and the client's traffic re-homes to the
    surviving replica without a new key setup (§3.2 statelessness,
    §3.5 failover). Reports packets lost until re-home and recovery
    latency quantiles.

    The entire fault timeline is a pure function of [seed] (default:
    the [FAULT_SEED] environment variable) and [plan]; {!to_rows} is a
    pure function of {!result}, so equal seeds render byte-identical
    tables. *)

type result = {
  seed : int;
  crashes : int;  (** crash events of the client-nearest box *)
  sent : int;
  delivered : int;
  lost_until_rehome : int;
      (** sends whose reply never arrived — packets that died in a crash
          window before the flow re-homed *)
  key_setups_failed : int;
  faults_injected : int;
  corrupt_injected : int;
      (** frames bit-flipped on the wire this run ([corrupt] > 0) *)
  proto_rejected : int;
      (** frames the strict shim decoders dropped-and-counted this run —
          the sum over the [core.proto.reject.*] families; with
          corruption on, mangled frames land here, never as crashes *)
  recoveries_ns : int64 list;
      (** per-crash latency from crash to the next delivered reply *)
}

val run :
  ?seed:int ->
  ?plan:Fault.Plan.t ->
  ?corrupt:float ->
  ?duration_s:float ->
  unit ->
  result
(** [duration_s] (default 30) of one request every 20 ms from Ann to
    google.example under [plan] (default: flap "neutralizer-1", mean
    2 s up, 1 s down). [corrupt] (default 0) adds per-packet
    bit-flip probability on every link; leaving it 0 installs no hook at
    all, keeping the default run's fault timeline (and its pinned golden
    digest) bit-exact. *)

val to_rows : result -> string list list

val print : result -> unit
