(** Fixed-size domain pool whose one primitive is a barrier round.

    The pool exists for the sharded event engine ({!Net.Engine}): each
    conservative-lookahead window is one {!round} with one task per
    shard, and the engine thread is the submitter. Determinism comes
    from indexing, not scheduling: task [i] writes only state owned by
    index [i], and the round returns only when every task has finished,
    so the output is bit-for-bit identical to running the same tasks in
    order on one domain — property-tested at shard counts 1, 2 and 4 in
    [test/test_pdes.ml] and [test/test_scale.ml].

    Built on stdlib [Domain]/[Atomic]/[Mutex]/[Condition] only; no
    domainslib. A pool of size [n] uses [n - 1] worker domains plus the
    submitting thread, which takes part in the round instead of
    blocking, so [size = 1] spawns no domains at all and {e is} the
    sequential path. A round publishes its task count in an atomic claim
    word that every participant takes indices from. Between rounds an
    idle worker spins a bounded number of times, then parks on a
    condition variable; a pool larger than
    [Domain.recommended_domain_count] never spins, so an oversubscribed
    pool does not steal the cores its own domains need.

    Concurrency contract: submit from one thread at a time (in this
    repo, the engine thread). Tasks must not call {!round} recursively
    on the same pool and may only bump {e pre-resolved} obs
    counters/gauges (which are atomic, see {!Obs.Counter}); resolving
    new metrics mutates the registry hashtable and belongs on the
    submitting thread. *)

type pool

val create : size:int -> unit -> pool
(** [create ~size ()] starts a pool of parallelism degree [size >= 1]
    ([size - 1] worker domains; the caller is the [size]-th worker).
    Raises [Invalid_argument] when [size < 1]. *)

val size : pool -> int

val round : pool -> n:int -> f:(int -> unit) -> unit
(** [round pool ~n ~f] runs [f 0 .. f (n-1)] as one barrier round: each
    index is its own task, and the call returns only when every task
    has completed. [~n:0] runs nothing and returns at once. If any task
    raises, the round still runs every task, then re-raises the
    {e lowest-indexed} exception, whatever domain hit it first; the
    pool stays usable. [n] must be at most about 16 million
    ([Invalid_argument] otherwise).
    One round advances every engine shard to the same safe horizon, and
    the barrier is the happens-before edge that makes the coordinator's
    outbox merge race-free. *)

val shutdown : pool -> unit
(** Stop and join the worker domains, whether they are spinning or
    parked. Idempotent; the pool must not be used afterwards. *)

val with_pool : size:int -> (pool -> 'a) -> 'a
(** [with_pool ~size f] runs [f] with a fresh pool and shuts it down on
    the way out, exceptions included. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    available to this process. *)
