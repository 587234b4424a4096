(** Small helpers shared by the crypto modules. All values are immutable
    [string]s treated as octet strings. *)

(** [xor a b] is the bytewise XOR; raises [Invalid_argument] when lengths
    differ. *)
val xor : string -> string -> string

(** [xor_prefix a b] is [a] XORed with the first [length a] bytes of [b];
    raises [Invalid_argument] when [b] is shorter than [a]. Saves the
    caller a [String.sub] when the mask is longer than the data. *)
val xor_prefix : string -> string -> string

(** [equal_ct a b] compares in time independent of the position of the
    first difference (lengths are still revealed). *)
val equal_ct : string -> string -> bool

val to_hex : string -> string

(** [of_hex s] decodes lowercase or uppercase hex; raises
    [Invalid_argument] on odd length or bad digits. *)
val of_hex : string -> string

(** [take n s] / [drop n s]: prefix and suffix split helpers; raise
    [Invalid_argument] when [s] is shorter than [n]. *)
val take : int -> string -> string

val drop : int -> string -> string

(** 32-bit big-endian integer codecs used by packet formats. *)
val put_u32 : Buffer.t -> int -> unit

val get_u32 : string -> int -> int
