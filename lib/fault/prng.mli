(** Deterministic, splittable PRNG for fault injection (SplitMix64).

    Every fault source — each link's perturbation stream, each flapping
    node's holding times — draws from its own child stream derived from
    the root seed and a stable string label, so streams are independent
    of one another {e and} of the order in which they were created.
    Identical [FAULT_SEED] therefore reproduces the exact fault
    timeline; see {!Inject.create}.

    Not cryptographic: the simulated adversary never sees these draws. *)

type t

val create : seed:int -> t

val split : t -> label:string -> t
(** Child stream keyed by [label]. Splitting does not consume state:
    the same (root seed, label) always yields the same stream, and the
    split order is irrelevant. *)

val bits : t -> int64
(** Next 64 raw bits. *)

val float : t -> float
(** Uniform in [0, 1) (53 bits). *)

val bool : t -> p:float -> bool
(** True with probability [p]; never true for [p <= 0.0]. *)

val int : t -> int -> int
(** Uniform in [0, bound); [bound] must be positive. *)

val int64 : t -> int64 -> int64

val exponential : t -> mean:float -> float
(** Exponentially distributed holding time (for Markov up/down
    flapping); [mean] must be positive. *)
