(** Bounded capture buffer of wire observations — the simulated
    equivalent of running tcpdump inside an ISP. Tests use it to assert
    what an adversary could and could not have seen. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 65536 observations; older entries are evicted
    FIFO. *)

val tap : t -> Observation.t -> unit
(** Feed an observation (pass [tap t] to {!Network.add_tap}). *)

val length : t -> int
val to_list : t -> Observation.t list
(** Oldest first. *)

val exists : t -> (Observation.t -> bool) -> bool
val count : t -> (Observation.t -> bool) -> int
val clear : t -> unit
