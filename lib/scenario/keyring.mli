(** Deterministic, process-wide cache of RSA key pairs.

    Key generation is by far the most expensive operation in the
    repository (tens to hundreds of milliseconds per RSA-1024 key), and
    tests, examples and benches need many identities whose actual key
    values do not matter — only that they are distinct and stable. Each
    index is generated once per process from its own fixed seed and
    memoized, so a key is the same whichever call generated it.

    The cache is not domain-safe: call {!e2e}, {!onetime} and {!prepare}
    from one domain at a time. *)

val e2e : int -> Crypto.Rsa.private_key
(** 1024-bit end-to-end identity keys (sites, resolvers, hosts). *)

val onetime : int -> Crypto.Rsa.private_key
(** 512-bit one-time keys for clients that opt out of per-setup
    generation. *)

val prepare : e2e:int list -> onetime:int list -> unit
(** [prepare ~e2e ~onetime] generates every listed index not yet
    memoized concurrently, one {!Par.round} task per key on a pool of
    [min n (Par.recommended ())] domains for [n] missing keys, then
    memoizes them on the calling domain. The keys are byte-identical to
    those the sequential {!e2e} and {!onetime} calls would give; a
    one-core host generates them in order on the caller, and a call
    whose keys are all memoized generates nothing. *)

val onetime_pool : unit -> unit -> Crypto.Rsa.private_key
(** A fresh sequential draw over {!onetime}: each call of the returned
    thunk yields the next pooled key. *)
