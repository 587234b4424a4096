(** AES-CTR over {!Aes}, the one block cipher mode in use: {!Seal}'s
    session payloads and the onion baseline's cells. The DRBG runs its
    own counter through {!Aes.encrypt_bytes}. *)

(** [ctr ~key ~nonce s] encrypts or decrypts [s] (any length) with AES-CTR.
    [nonce] is 16 bytes and must be unique per key; the low 32 bits are the
    running block counter, which wraps inside them. CTR is its own
    inverse. *)
val ctr : key:Aes.key -> nonce:string -> string -> string

val ctr_into :
  key:Aes.key -> nonce:string -> nonce_off:int -> string -> src_off:int ->
  Bytes.t -> dst_off:int -> len:int -> unit
(** [ctr_into ~key ~nonce ~nonce_off src ~src_off dst ~dst_off ~len] is
    the kernel under {!ctr}: it runs AES-CTR from the 16-byte nonce at
    [nonce_off] over [len] bytes of [src] from [src_off], writing them
    into [dst] at [dst_off]. It allocates nothing: the counter and
    keystream blocks live in per-domain scratch. Raises
    [Invalid_argument] on a slice out of bounds. *)
