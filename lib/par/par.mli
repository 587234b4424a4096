(** Fixed-size domain pool with deterministic fan-out/fan-in.

    The discrete-event engine is single-threaded and stays that way —
    determinism of the simulation timeline is sacred. Parallelism lives
    at the {e batch-service boundary}: a caller on the engine thread
    hands a whole batch of independent work items to the pool, the pool
    fans the items out across OCaml 5 domains, and {!map_chunks} hands
    back the results {e in submission order}. Because every work item is
    a pure function of its input (any randomness is split per item
    {e before} the fan-out, see {!Core.Setup_batch}), the output is
    bit-for-bit identical to a sequential run regardless of how the OS
    schedules the domains — property-tested at pool sizes 1, 2 and 4 in
    [test/test_par.ml].

    Built on stdlib [Domain]/[Atomic]/[Mutex]/[Condition] only; no
    domainslib. A pool of size [n] uses [n - 1] worker domains plus the
    submitting thread, which participates in the batch instead of
    blocking — so [size = 1] spawns no domains at all and {e is} the
    sequential path. One mechanism serves both entry points: {!round}
    publishes its task count in an atomic claim word that every
    participant takes indices from, and {!map_chunks} is a round over
    chunk indices. Between rounds an idle worker spins a bounded number
    of times, then parks on a condition variable; a pool larger than
    [Domain.recommended_domain_count] never spins, so an oversubscribed
    pool does not steal the cores its own domains need.

    Concurrency contract: submit from one thread at a time (in this
    repo, the engine thread). Work items must not call {!map_chunks}
    recursively on the same pool, must not touch the engine or the
    network, and may only bump {e pre-resolved} obs counters/gauges
    (which are atomic, see {!Obs.Counter}) — resolving new metrics
    mutates the registry hashtable and belongs on the engine thread. *)

type pool

val create : size:int -> unit -> pool
(** [create ~size ()] starts a pool of parallelism degree [size >= 1]
    ([size - 1] worker domains; the caller is the [size]-th worker).
    Raises [Invalid_argument] when [size < 1]. *)

val size : pool -> int

val map_chunks : ?chunk:int -> pool -> f:('a -> 'b) -> 'a array -> 'b array
(** [map_chunks pool ~f xs] applies [f] to every element of [xs] and
    returns the results in the same order as the inputs, regardless of
    which domain computed which chunk. Inputs are split into contiguous
    chunks of [chunk] elements (default: enough chunks for ~4 per
    worker); each chunk is one task. If any application of [f] raises,
    the whole batch is drained and the {e lowest-indexed} exception is
    re-raised — also deterministic. *)

val round : pool -> n:int -> f:(int -> unit) -> unit
(** [round pool ~n ~f] runs [f 0 .. f (n-1)] as one barrier round: each
    index is its own task (no chunking), and the call returns only when
    every task has completed. Exceptions follow the {!map_chunks} rule —
    the batch is drained and the lowest-indexed exception re-raised; the
    pool stays usable. [n] must be at most about 16 million
    ([Invalid_argument] otherwise).
    This is the synchronization primitive under the sharded event
    engine's conservative-lookahead windows ({!Net.Engine}): one round
    advances every shard to the same safe horizon, and the barrier is
    the happens-before edge that makes the coordinator's outbox merge
    race-free. *)

val shutdown : pool -> unit
(** Stop and join the worker domains, whether they are spinning or
    parked. Idempotent; the pool must not be used afterwards. *)

val with_pool : size:int -> (pool -> 'a) -> 'a
(** [with_pool ~size f] runs [f] with a fresh pool and shuts it down on
    the way out, exceptions included. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] — the hardware parallelism
    available to this process. *)

val default_size : unit -> int
(** Pool size for tools and tests: the [PAR_POOL] environment variable
    when set, clamped to [1 .. recommended ()]; otherwise
    [recommended ()]. *)

val seed : unit -> int
(** Workload seed for tools and tests: [PAR_SEED] when set, else 1.
    Logged by the [@par] test runner so failures reproduce. *)
