(** Arbitrary-precision natural numbers.

    Values are immutable. The representation is a little-endian array of
    26-bit limbs with no trailing zero limbs, so every mathematical value
    has exactly one representation and structural equality coincides with
    numerical equality.

    This module exists because the sealed build environment provides no
    [zarith]; it implements exactly what the RSA substrate needs: ring
    operations, Euclidean division (Knuth's Algorithm D), shifts, and
    conversions to and from big-endian octet strings.

    Everything here is pure over immutable values (scratch, where used,
    is per-call), so all operations — including a shared
    {!Montgomery.ctx}, which is immutable after [create] — are safe to
    call concurrently from several domains. *)

type t

val zero : t
val one : t
val two : t

(** [of_int n] converts a non-negative [int]. Raises [Invalid_argument] on
    negative input. *)
val of_int : int -> t

(** [to_int n] converts back to [int]. Raises [Failure] if the value does
    not fit in an OCaml [int]. *)
val to_int : t -> int

val is_zero : t -> bool
val equal : t -> t -> bool

(** Total order; [compare a b] is negative, zero, or positive as [a] is
    less than, equal to, or greater than [b]. *)
val compare : t -> t -> int

val add : t -> t -> t

(** [sub a b] is [a - b]. Raises [Invalid_argument] if [b > a]. *)
val sub : t -> t -> t

val mul : t -> t -> t

(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero] if [b]
    is zero. *)
val divmod : t -> t -> t * t

val rem : t -> t -> t

(** [rem_int a d] is [a mod d] for a divisor [0 < d < 2^26] (one limb),
    computed without allocating. Raises [Invalid_argument] for any other
    [d]. *)
val rem_int : t -> int -> int

(** [shift_left n k] is [n * 2^k]; [k >= 0]. *)
val shift_left : t -> int -> t

(** [shift_right n k] is [n / 2^k]; [k >= 0]. *)
val shift_right : t -> int -> t

(** [bit_length n] is the position of the highest set bit plus one;
    [bit_length zero = 0]. *)
val bit_length : t -> int

(** [testbit n i] is the value of bit [i] (bit 0 is least significant). *)
val testbit : t -> int -> bool

val is_even : t -> bool
val is_odd : t -> bool

val succ : t -> t
val pred : t -> t

(** [of_bytes_be s] interprets [s] as a big-endian unsigned integer. *)
val of_bytes_be : string -> t

(** [to_bytes_be ?len n] is the big-endian encoding of [n]. With [~len]
    the result is left-padded with zero octets to exactly [len] bytes;
    raises [Invalid_argument] if [n] needs more than [len] bytes. Without
    [~len] the encoding is minimal ([""] for zero). *)
val to_bytes_be : ?len:int -> t -> string

(** [of_hex s] parses a hexadecimal string (no [0x] prefix, case
    insensitive). Raises [Invalid_argument] on bad characters. *)
val of_hex : string -> t

val to_hex : t -> string

(** [random ~bits state] draws a uniform value in [[0, 2^bits)]. *)
val random : bits:int -> Random.State.t -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Montgomery-form modular exponentiation for odd moduli — the engine
    under RSA. Every product runs through one deferred-carry kernel: n
    rounds add [a_i * b + u * m] into unnormalized accumulators and
    carry only the limb each round shifts out (squares skip the products
    below the diagonal), then one normalizing pass and one conditional
    subtraction. Exact at every width: past 256 limbs the kernel adds a
    carry pass every 256 rounds. Each call below allocates its own
    scratch, a few arrays per exponentiation. *)
module Montgomery : sig
  type ctx

  val create : t -> ctx option
  (** [None] when the modulus is even or < 3. *)

  val mul_mod : ctx -> t -> t -> t
  (** [(a * b) mod m] through the Montgomery domain; inputs need not be
      reduced. *)

  val sqr_mod : ctx -> t -> t
  (** [a^2 mod m] through the kernel's squaring rounds, which skip the
      products below the diagonal (about three quarters of the limb
      multiplications of a general product). *)

  val pow_mod : ctx -> t -> t -> t
  (** [b^e mod m]. Fixed-window (4-bit) left-to-right ladder over a
      16-entry table of powers, with every squaring on the kernel's
      squaring rounds; exponents of 12 bits or fewer, too short for the
      table to pay, take the binary square-and-multiply ladder on the
      same kernel. *)
end
