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

val mac_into :
  key -> string -> off:int -> len:int -> Bytes.t -> dst_off:int ->
  dst_len:int -> unit
(** [mac_into key s ~off ~len dst ~dst_off ~dst_len] is the kernel under
    {!mac}: it MACs [len] bytes of [s] from [off] and writes the first
    [dst_len] (at most 32) bytes of the tag into [dst] at [dst_off]. It
    allocates nothing: the inner digest lives in per-domain scratch. The
    whole slice is read before [dst] is written, so a tag may follow its
    message in one buffer. Raises [Invalid_argument] on a slice out of
    bounds. *)

(** [derive ~secret ~label ~length] expands [secret] into [length] bytes of
    key material using counter-mode HMAC (a simplified HKDF-Expand). *)
val derive : secret:string -> label:string -> length:int -> string
