(** HMAC-SHA256 (RFC 2104): the tag of the end-to-end session envelopes
    and the PRF of their key derivation. *)

type key
(** A prepared key: the SHA-256 chaining states after the ipad and the
    opad block (the precomputation of RFC 2104 §4). A MAC under it
    compresses only its message blocks plus one outer block. Immutable,
    so one [key] may be shared across domains. *)

val key : string -> key
(** [key k] prepares [k], of any length: two compressions, after hashing
    a key longer than the 64-byte block. *)

val mac : key -> string -> string
(** [mac key msg] is the 32-byte tag. *)

(** [derive ~secret ~label ~length] expands [secret] into [length] bytes of
    key material using counter-mode HMAC (a simplified HKDF-Expand). *)
val derive : secret:string -> label:string -> length:int -> string
