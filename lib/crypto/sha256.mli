(** SHA-256 (FIPS 180-4).

    Used for end-to-end session keys and tags (through {!Hmac}), session
    ids and DNS record signatures. The round constants are derived from
    the fractional parts of cube roots of the first 64 primes at
    initialisation and validated by known-answer tests.

    Whole blocks are compressed straight out of the input, with one
    message schedule per call; only a partial block is ever copied.
    Every compressed block is counted in [crypto.sha256.blocks]. *)

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
