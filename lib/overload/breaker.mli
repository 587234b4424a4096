(** A per-destination circuit breaker.

    Classic three-state machine over the simulated clock:

    - [Closed]: traffic flows; consecutive failures are counted and
      [failure_threshold] of them trip the breaker.
    - [Open]: all traffic is refused locally (fail fast, no retry storm)
      until [open_timeout] ns have elapsed.
    - [Half_open]: after the timeout, up to [half_open_probes] requests
      are let through as probes. A probe success closes the breaker; a
      probe failure re-opens it and restarts the timeout.

    The machine never moves [Open -> Closed] directly — recovery is
    always observed through a [Half_open] probe first. That invariant is
    checked by a qcheck state-machine property in
    [test/test_overload.ml], which replays arbitrary event sequences
    against {!history}.

    Clients hold one breaker per neutralizer address and intersect
    "breaker allows" with [Multihome]'s availability view when picking a
    destination. *)

type config = {
  failure_threshold : int;  (** consecutive failures that trip; > 0 *)
  open_timeout : int64;  (** ns to stay open before probing; > 0 *)
  half_open_probes : int;  (** concurrent probes allowed half-open; > 0 *)
}

type state = Closed | Open | Half_open

val state_name : state -> string

type t

val create : ?config:config -> now:int64 -> unit -> t
(** Starts [Closed]. [config] defaults to 5 consecutive failures, 1 s
    open and 1 probe. Raises [Invalid_argument] on a malformed config. *)

val state : t -> now:int64 -> state
(** Current state, accounting for an elapsed open timeout (an [Open]
    breaker whose timeout has passed reports — and becomes —
    [Half_open]). *)

val allow : t -> now:int64 -> bool
(** May a request be sent now? [Closed] always; [Open] never (until the
    timeout promotes it); [Half_open] only while probe slots remain —
    each grant consumes one slot until an outcome is recorded. *)

val record_success : t -> now:int64 -> unit
(** Outcome of an allowed request: clears the failure streak; a
    half-open probe success closes the breaker. *)

val record_failure : t -> now:int64 -> unit
(** Outcome of an allowed request: extends the failure streak, tripping
    the breaker at [failure_threshold]; a half-open probe failure
    re-opens immediately. *)

val history : t -> (int64 * state) list
(** Transition log, oldest first, starting with [(create_time, Closed)].
    Test hook for the state-machine property. *)
