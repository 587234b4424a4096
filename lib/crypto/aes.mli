(** AES-128 block cipher (FIPS 197).

    The S-box and round constants are derived from the GF(2^8) definition
    at module initialisation rather than transcribed, and the
    implementation is validated against the FIPS 197 appendix vectors in
    the test suite. This is the cipher the paper's neutralizer uses for
    both its keyed hash and its address encryption ("our implementation
    uses 128-bit AES for both hashing and encryption/decryption", §4). *)

type key
(** An expanded key is immutable apart from a write-once atomic cache of
    decrypt-side round keys and {!rekey}, so one [key] that nobody
    rekeys may be shared freely across domains: concurrent [encrypt_*] /
    [decrypt_block] calls are safe and deterministic. *)

(** [expand_key k] precomputes the round keys. [k] must be 16 bytes. *)
val expand_key : string -> key

(** [rekey key k] expands the 16 bytes of [k] over [key]'s round keys,
    in place, as {!expand_key} would. It is for a key one owner holds
    alone (the DRBG's, which changes after every draw): whoever else
    holds [key] sees it change. Counted as a key expansion. *)
val rekey : key -> Bytes.t -> unit

(** [encrypt_block key block] / [decrypt_block key block]: [block] must be
    exactly 16 bytes. *)
val encrypt_block : key -> string -> string

val decrypt_block : key -> string -> string

(** [encrypt_bytes key ~src ~dst] is the allocation-free form of
    {!encrypt_block}: both buffers must be exactly 16 bytes, and [src] may
    alias [dst]. This is the hot-path entry point of the datapath, CTR,
    CMAC and the DRBG; the string variant is a thin wrapper around it. *)
val encrypt_bytes : key -> src:Bytes.t -> dst:Bytes.t -> unit

(** Byte-wise reference implementation of encryption, kept for
    cross-checking the T-table fast path in property tests. *)
val encrypt_block_reference : key -> string -> string

val block_size : int
