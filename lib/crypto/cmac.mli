(** AES-CMAC (RFC 4493).

    This is the keyed hash the neutralizer uses to derive per-source
    symmetric keys: [Ks = CMAC(K_M, nonce || srcIP)] instantiates the
    paper's [Ks = hash(K_M, nonce, srcIP)] with a 128-bit-AES keyed hash
    exactly as §4 describes. *)

type key

val key : string -> key
(** [key k] with [k] of 16 bytes. *)

val mac : key -> string -> string
(** [mac key msg] is the 16-byte tag over a message of any length. *)

val mac_parts : key -> string list -> string
(** [mac_parts key parts] is [mac key (String.concat "" parts)], without
    the concatenation: the parts are XORed into one 16-byte block that
    becomes the tag, so the tag is the only allocation. Convenient for
    tuple-style inputs such as [(nonce, srcIP)]. *)
