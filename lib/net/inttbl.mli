(** A hash table from non-negative ints, for the lookups a packet makes
    at every hop: address to node, address to anycast group, neighbour
    to out-link. It hashes and compares keys as ints (no polymorphic
    [caml_hash] or [compare]), and a lookup that misses returns a
    default instead of allocating an option. Iteration order is a
    function of the keys, not of insertion order. *)

type 'a t

val create : int -> 'a t
(** [create n] sizes the table for [n] keys; it grows as needed. *)

val find : 'a t -> int -> default:'a -> 'a
(** The value bound to the key, or [default]. Allocation-free. *)

val replace : 'a t -> int -> 'a -> unit
(** Bind the key, replacing any earlier binding. Raises
    [Invalid_argument] on a negative key. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
