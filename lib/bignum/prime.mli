(** Probabilistic primality testing and prime generation. *)

(** [is_probable_prime n state] runs trial division by small primes
    followed by 24 Miller–Rabin iterations with random bases drawn from
    [state]. A composite passes with probability at most [4^-24]. *)
val is_probable_prime : Nat.t -> Random.State.t -> bool

(** [generate ~bits state] draws random odd candidates of exactly [bits]
    bits (top bit set) until one passes {!is_probable_prime}. *)
val generate : bits:int -> Random.State.t -> Nat.t

(** [generate_coprime_pred ~bits ~e state] generates a prime [p] with
    [gcd (p - 1) e = 1] — the condition RSA key generation needs so that
    the public exponent [e] is invertible mod [p-1]. *)
val generate_coprime_pred : bits:int -> e:Nat.t -> Random.State.t -> Nat.t

