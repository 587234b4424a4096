(** IPv4 addresses and prefixes. *)

type t
(** An IPv4 address; total order, usable as a map key. *)

val of_int : int -> t
(** [of_int n] with [0 <= n < 2^32]. *)

val to_int : t -> int

val of_string : string -> t
(** [of_string "10.0.0.1"]; raises [Invalid_argument] on malformed input. *)

val to_string : t -> string

val of_octets : string -> t
(** [of_octets s] reads 4 network-order bytes. *)

val to_octets : t -> string

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

module Prefix : sig
  type addr = t

  type t
  (** A CIDR prefix such as [10.1.0.0/16]. *)

  val make : addr -> int -> t
  (** [make addr len] keeps only the top [len] bits of [addr]. *)

  val of_string : string -> t
  (** [of_string "10.1.0.0/16"]. *)

  val to_string : t -> string
  val mem : addr -> t -> bool
  val network : t -> addr
  val length : t -> int

  (** [nth p i] is the [i]-th host address in the prefix; raises
      [Invalid_argument] if out of range. *)
  val nth : t -> int -> addr
end
