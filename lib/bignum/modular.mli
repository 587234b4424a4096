(** Modular arithmetic over {!Nat}. *)

(** [sub_mod a b m] is [(a - b) mod m], always non-negative. *)
val sub_mod : Nat.t -> Nat.t -> Nat.t -> Nat.t

(** [mul_mod a b m] is [(a * b) mod m]. *)
val mul_mod : Nat.t -> Nat.t -> Nat.t -> Nat.t

(** [pow_mod b e m] is [b^e mod m]: {!Nat.Montgomery.pow_mod} for odd
    moduli and exponents over 20 bits, left-to-right square-and-multiply
    over Euclidean division otherwise. Raises
    [Division_by_zero] if [m] is zero; [pow_mod _ _ one = zero]. *)
val pow_mod : Nat.t -> Nat.t -> Nat.t -> Nat.t

(** The division-based square-and-multiply, kept as the reference the
    Montgomery path is property-tested against. *)
val pow_mod_generic : Nat.t -> Nat.t -> Nat.t -> Nat.t

(** [egcd a b] is [(g, x, y)] with [g = gcd a b] and [a*x + b*y = g], where
    [x] and [y] are signed coefficients given as [(sign, magnitude)] with
    [sign] being [1] or [-1]. *)
val egcd : Nat.t -> Nat.t -> Nat.t * (int * Nat.t) * (int * Nat.t)

val gcd : Nat.t -> Nat.t -> Nat.t

(** [inverse a m] is the [x] in [[1, m)] with [a*x = 1 (mod m)], or [None]
    when [gcd a m <> 1]. *)
val inverse : Nat.t -> Nat.t -> Nat.t option
