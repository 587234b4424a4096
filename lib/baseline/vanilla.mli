(** The plain IP forwarding path a router performs with no neutralizer in
    front of it — the reference point of the paper's §4 measurement ("the
    neutralizer can only forward vanilla IP packets of the same size at
    600kpps").

    [process] performs the work a software router pays per packet: a
    longest-prefix-match FIB lookup, TTL decrement and a checksum-style
    header fold. The E2 bench runs this and the neutralizer data path on
    identical packets and reports the throughput ratio. *)

type fib

val fib_of_prefixes : (Net.Ipaddr.Prefix.t * int) list -> fib
(** Route table: prefix -> next-hop id. *)

val random_fib : entries:int -> Random.State.t -> fib
(** Synthetic FIB for benchmarks. *)

val lookup : fib -> Net.Ipaddr.t -> int option
(** Longest-prefix match. *)

val process : fib -> Net.Packet.t -> (int * Net.Packet.t) option
(** [Some (next_hop, packet')] with TTL decremented, or [None] when TTL
    expired or no route. *)

