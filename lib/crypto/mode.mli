(** AES-CTR over {!Aes}, the one block cipher mode in use: {!Seal}'s
    session payloads and the onion baseline's cells. The DRBG runs its
    own counter through {!Aes.encrypt_block}. *)

(** [ctr ~key ~nonce s] encrypts or decrypts [s] (any length) with AES-CTR.
    [nonce] is 16 bytes and must be unique per key; the low 32 bits are the
    running block counter. CTR is its own inverse. *)
val ctr : key:Aes.key -> nonce:string -> string -> string
