(** SHA-256 (FIPS 180-4).

    Used for end-to-end session keys and tags (through {!Hmac}), session
    ids and DNS record signatures. The round constants are derived from
    the fractional parts of cube roots of the first 64 primes at
    initialisation and validated by known-answer tests.

    Whole blocks are compressed straight out of the input; only a
    partial block is ever copied. The message schedule, the chaining
    state of the hash being finished and its padded tail live in
    per-domain scratch ([Domain.DLS]), so {!finish_into} allocates
    nothing and one domain's hash never sees another's. Every compressed
    block is counted in [crypto.sha256.blocks]. *)

val digest : string -> string
(** [digest msg] is the 32-byte hash. *)

val digest_hex : string -> string

type ctx
(** A running hash. Immutable: [feed] and [finalize] return new values
    and never change their argument, so one [ctx] may be resumed many
    times and shared across domains. {!Hmac} keeps its prepared keys as
    [ctx]s. *)

val init : unit -> ctx
val feed : ctx -> string -> ctx
val finalize : ctx -> string

val finish_into :
  ctx -> string -> off:int -> len:int -> Bytes.t -> dst_off:int ->
  dst_len:int -> unit
(** [finish_into ctx s ~off ~len dst ~dst_off ~dst_len] is the kernel
    under {!digest} and {!finalize}: it hashes [ctx]'s input followed by
    [len] bytes of [s] from [off], without changing [ctx], and writes the
    first [dst_len] (at most 32) bytes of the digest into [dst] at
    [dst_off]. It allocates nothing. Raises [Invalid_argument] on a
    slice out of bounds. *)
