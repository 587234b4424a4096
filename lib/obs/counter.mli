(** A monotonically non-decreasing integer counter.

    Counters only ever grow: {!add} rejects negative increments, so a
    counter's value is a faithful running total. Use a {!Gauge.t} for
    quantities that can move both ways.

    Increments are atomic, so an already-resolved counter may be bumped
    from any domain — the fast path the sharded engine's handlers rely
    on. Only the {e resolution} of a counter through {!Registry.counter}
    must stay on the engine thread (it mutates the registry table). *)

type t

val create : unit -> t

val inc : t -> unit
(** Add one. *)

val add : t -> int -> unit
(** [add t n] adds [n]. Raises [Invalid_argument] if [n < 0] — counters
    never decrease. *)

val value : t -> int
