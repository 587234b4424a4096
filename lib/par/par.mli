(** Fixed-size domain pool whose one primitive is a barrier round, and
    {!both}, a two-way fork onto one process-wide helper domain.

    Pools have two users. The sharded event engine ({!Net.Engine}) runs
    each conservative-lookahead window as one {!round} with one task per
    shard, the engine thread submitting. {!Scenario.Keyring.prepare}
    generates fixture RSA keys as one round with one task per key, on a
    pool it starts and shuts down around that round. Determinism comes
    from indexing, not scheduling: task [i] writes only state owned by
    index [i], and the round returns only when every task has finished,
    so the output is bit-for-bit identical to running the same tasks in
    order on one domain — property-tested at shard counts 1, 2 and 4 in
    [test/test_pdes.ml] and [test/test_scale.ml], and for the keyring in
    [test/test_par.ml].

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

    Concurrency contract of a pool: submit from one thread at a time
    (the engine thread, or the keyring's caller); {!both} has no such
    rule. Tasks must not call {!round} recursively on the same pool and
    may only bump {e pre-resolved} obs counters/gauges (which are
    atomic, see {!Obs.Counter}); resolving new metrics mutates the
    registry hashtable and belongs on the submitting thread. *)

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

(** {1 Two-way fork}

    The second parallel path, separate from pools: {!both} runs two
    independent computations on two cores, for work too short to pay a
    domain spawn each time (the two CRT halves of an RSA private
    operation, {!Crypto.Rsa}). *)

val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** [both f g] posts [f] to the process-wide helper domain while the
    caller runs [g], and returns both results once both have finished.
    The results are the values [f ()] and [g ()] would give in order on
    one domain, so a caller whose [f] and [g] share no mutable state
    gets the same answer whichever path ran. If [f] raises, its
    exception is re-raised after [g] has finished; if only [g] raises,
    [g]'s exception is re-raised after [f] has finished.

    A caller that finishes [g] before the helper has taken [f] takes [f]
    back and runs it itself (counted in [par.helper.steals]), so a slow
    helper never makes [both] slower than [g] then [f]. A caller that
    finds [f] running spins briefly, then parks until the helper
    signals.

    Both run on the caller, [f] first, when the host has one core
    ({!recommended}[ () = 1]), when another caller holds the helper, or
    when [Domain.spawn] fails. So unlike {!round}, [both] may be called
    from any number of domains at once: one of them gets the helper
    and the rest run sequentially; a [both] nested in [f] or [g] finds
    the helper held and runs inline too. [f] may bump pre-resolved obs
    counters but, like a {!round} task, must not resolve new metrics.

    The helper is spawned by the first call that finds none. Between
    jobs it spins for a few milliseconds, then exits, and the next call
    spawns it again (counted in [par.helper.spawns]); no domain outlives
    the last call by more than that idle window. *)

val helper_live : unit -> bool
(** Whether a helper domain is alive now (spinning for a job, or
    running one). It turns [false] within the idle window after the
    last {!both} call. *)
