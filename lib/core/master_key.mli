(** The neutralizer's master key [K_M] and its rotation.

    All per-source symmetric keys derive from it:
    [Ks = CMAC(K_M, nonce || outside-party IP)] — the stateless keyed hash
    of §3.2. Every neutralizer replica of a domain shares the same [t]
    (or a copy created with the same seed), which yields the paper's
    fault-tolerance property: any box can decrypt and forward.

    Rotating keeps one previous epoch alive so that in-flight packets
    survive a key change; sources learn the fresh epoch on their next key
    setup or refresh.

    Epoch keys form a one-way hash chain (raw key of epoch [e+1] =
    SHA-256 of epoch [e]'s raw key, which rotation overwrites), giving
    the setup channel forward secrecy: compromising a box today yields
    the current and previous epoch keys — nothing reaches backward to
    recompute a retired epoch's [Ks] values, so prior-epoch grant
    mappings (which outside party talked to which customer) stay
    confidential. The deliberate exception is the one-epoch grace
    window: the previous key is kept in RAM until the next rotation so
    in-flight packets survive, and is exposed by a compromise during
    that window. *)

type t

val of_seed : seed:string -> t
(** Deterministic master key for replica sharing in tests: two calls with
    the same seed derive identical keys for every epoch (the seed fixes
    epoch 0 and the ratchet is deterministic, so replicas that rotate in
    lockstep stay identical). The seed is {e not} retained: it derives epoch 0 only. *)

val current_epoch : t -> int

val rotate : t -> unit
(** Advance to the next epoch by one ratchet step, destroying the
    current raw key; the previous epoch's key remains valid until the
    next rotation. Epochs wrap at 256 (one byte on the wire). *)

val derive : t -> epoch:int -> nonce:string -> src:Net.Ipaddr.t -> string option
(** [Ks] for the triple, 16 bytes; [None] when [epoch] is neither current
    nor previous (expired or never existed). *)

val derive_current : t -> nonce:string -> src:Net.Ipaddr.t -> int * string
(** Derivation at the current epoch: [(epoch, Ks)]. *)
