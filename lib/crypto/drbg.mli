(** A deterministic random bit generator in the style of CTR_DRBG
    (NIST SP 800-90A, simplified): AES-128 in counter mode over an
    internal key/counter state, rekeyed after every generate call.

    Hosts and neutralizers in the simulation each own a DRBG so that runs
    are reproducible from a seed while nonces and one-time keys remain
    unpredictable to the simulated adversary. *)

type t

val create : seed:string -> t
(** [create ~seed] accepts any seed length; it is conditioned through
    SHA-256. *)

val generate : t -> int -> string
(** [generate t n] returns [n] fresh bytes and advances the state. It
    allocates only the result: the state's counter, key and keystream
    block are rewritten in place. *)

