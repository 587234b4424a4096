(** RSA over {!Bignum}, shaped for the paper's protocol.

    The neutralizer design (§3.2) deliberately uses {e short one-time
    512-bit keys with public exponent 3}: encryption at the neutralizer is
    then two modular multiplications, and the key's 56-bit-symmetric-
    equivalent strength is acceptable because each key protects a single
    (nonce, Ks) pair for roughly two round-trip times. End-to-end
    encryption uses ordinary 1024-bit keys. Both are textbook-RSA with
    PKCS#1 v1.5-style random padding; like the paper, we treat
    chosen-ciphertext hardening as out of scope.

    Keys are immutable and every operation is pure given its [rng], so
    one key may be used from several domains concurrently, as long as
    each domain brings its own [rng] stream.

    A private operation on a modulus of 1024 bits or more runs its two
    CRT halves on two cores through {!Par.both} when the host has at
    least two ({!Par.recommended}), and counts itself in
    [crypto.rsa.crt_splits]. The result is the same value either way:
    each half is a pure function of the key and the input. Both halves
    run on the caller on a one-core host, when another domain holds the
    helper, and when the helper cannot be spawned; smaller moduli (the
    512-bit one-time keys) always run on the caller. *)

type public = { n : Bignum.Nat.t; e : Bignum.Nat.t; bits : int }

type private_key = {
  public : public;
  d : Bignum.Nat.t;
  p : Bignum.Nat.t;
  q : Bignum.Nat.t;
  dp : Bignum.Nat.t;
  dq : Bignum.Nat.t;
  qinv : Bignum.Nat.t;
}

(** [generate ?e ~bits state] generates a fresh key pair. [e] defaults to
    3. Raises [Invalid_argument] for [bits < 128]. *)
val generate : ?e:int -> bits:int -> Random.State.t -> private_key

(** Maximum plaintext length accepted by {!encrypt}. *)
val max_payload : public -> int

(** [encrypt pub ~rng msg] applies EME-PKCS1-v1.5 padding with nonzero
    random bytes drawn from [rng n] and encrypts. Raises
    [Invalid_argument] if [msg] exceeds {!max_payload}. *)
val encrypt : public -> rng:(int -> string) -> string -> string

(** [decrypt priv ct] returns [None] on wrong length or bad padding. *)
val decrypt : private_key -> string -> string option

(** Raw exponentiation on integers in [[0, n)] — the primitive the
    benches measure (one [encrypt_raw] is what the neutralizer pays per
    key-setup packet). *)
val encrypt_raw : public -> Bignum.Nat.t -> Bignum.Nat.t

val decrypt_raw : private_key -> Bignum.Nat.t -> Bignum.Nat.t
(** [decrypt_raw priv c] is [c^d mod n] by the CRT, its halves split as
    described above; {!decrypt} and {!sign} go through it. *)

(** [sign priv msg] / [verify pub ~msg ~signature]: SHA-256 +
    EMSA-PKCS1-v1.5. Used to sign DNS bootstrap records. *)
val sign : private_key -> string -> string

val verify : public -> msg:string -> signature:string -> bool

(** Serialization of public keys for DNS KEY records and key-setup
    packets. *)
val public_to_string : public -> string

(** [None] for a truncated blob, a modulus whose bit length is not the
    declared [bits], or an exponent below 3 or longer than 17 bits
    (17 bits hold 65537; the protocol's own keys use 3). *)
val public_of_string : string -> public option
