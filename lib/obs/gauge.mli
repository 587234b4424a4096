(** An instantaneous value that can move in both directions (queue depth,
    ratio, occupancy).

    Updates are atomic, so a resolved gauge may be moved from a pool
    domain (a sharded-engine handler) while the engine thread exports
    it. Resolution via {!Registry.gauge} stays on the engine thread. *)

type t

val create : unit -> t
val set : t -> float -> unit
val set_int : t -> int -> unit
val value : t -> float
