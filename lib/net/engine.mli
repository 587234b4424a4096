(** Discrete-event simulation core, sharded.

    Time is a simulated clock in nanoseconds, advanced only by event
    processing; wall-clock cost of the crypto operations is charged
    separately by the processing-cost model in {!Network}.

    {2 Shards and conservative lookahead}

    An engine owns [shards >= 1] event lanes, each with a private heap,
    clock and FIFO sequence counter. The default — and the only mode the
    packet-level {!Network} stack uses — is one shard, which runs the
    exact sequential loop this engine has always had. With more shards,
    {!run} advances the simulation in {e conservative-lookahead rounds}:

    - every round starts at [T], the minimum next-event time across all
      shards, and processes on every shard (concurrently, when a
      {!Par.pool} is supplied) exactly the events with time strictly
      below the safe horizon [T + lookahead];
    - [lookahead] must be a lower bound on cross-shard event latency —
      in a network partitioned by domains, the smallest latency of any
      link crossing shards ({!Topology.cross_shard_lookahead});
    - an event {!post}ed to another shard during a round must land at or
      beyond the horizon; the engine {e raises}
      {!Lookahead_violation} rather than silently reordering;
    - cross-shard events wait in per-source outboxes and are merged at
      the round barrier in source-shard index order, so destination
      sequence numbers — the tie-break for simultaneous events — do not
      depend on domain scheduling.

    Running the same sharded engine with no pool executes the identical
    rounds on one domain, which is the sequential reference the
    equivalence tests ([test/test_pdes.ml]) pin parallel runs against.

    Handlers executing on a shard may only touch state owned by that
    shard, bump pre-resolved (atomic) obs counters, and call
    {!schedule}/{!post}/{!shard_now} on their own engine; resolving new
    metrics or touching another shard's state is a data race.

    The engine records into an {!Obs.Registry.t} (the process-global
    default unless one is passed to {!create}), which keeps no reference
    back to it. It publishes [net.engine.events_processed],
    [net.engine.events_scheduled], [net.engine.events_cancelled]
    (counters), [net.engine.pending] (gauge, sampled when {!run}
    returns) and [net.engine.sim_wall_ratio] (gauge: simulated over
    monotonic wall-clock time of the last {!run}). Sharded engines
    additionally publish [net.engine.rounds] and a per-shard
    [net.engine.shard_processed{shard}] family, resolved on the
    coordinator at {!create}. The processed and scheduled counts are
    kept per shard and published by the coordinator at every round
    barrier and when {!run} returns or raises, so at a run boundary
    [events_processed] equals {!processed}, [events_scheduled] equals
    {!scheduled}, and the [shard_processed] family sums to {!processed};
    events scheduled between runs reach the counters at the next run. *)

type t

exception
  Lookahead_violation of {
    src : int;  (** shard whose handler posted the event *)
    dst : int;  (** destination shard *)
    at : int64;  (** requested absolute delivery time *)
    horizon : int64;  (** the round's safe horizon it fell below *)
  }
(** Raised by {!post} when a cross-shard event would land inside the
    current round's window — the destination may already have advanced
    past that instant, so delivering it would reorder the timeline. A
    correct workload never triggers this: it means the configured
    [lookahead] overstates the real minimum cross-shard latency. *)

val create :
  ?obs:Obs.Registry.t ->
  ?capacity:int ->
  ?shards:int ->
  ?lookahead:int64 ->
  ?topo:Topology.t ->
  unit ->
  t
(** [obs] defaults to {!Obs.Registry.default}. [capacity] pre-sizes each
    shard's event heap so a run with a known event population never pays
    a heap resize; when given it must be positive — non-positive values
    raise [Invalid_argument] here rather than surfacing as an array
    allocation error from heap internals. [shards] (default 1) is the
    number of event lanes.

    [lookahead] (nanoseconds) is the conservative window; when omitted
    on a sharded engine the {e auto-tuner} derives it from [topo] as
    {!Topology.cross_shard_lookahead} — the largest window that is still
    safe for that topology (unbounded when no link crosses shards). An
    explicit [lookahead] must be positive when [shards > 1]; omitting
    both [lookahead] and [topo] on a sharded engine raises
    [Invalid_argument]. Single-shard engines ignore both. *)

val obs : t -> Obs.Registry.t
(** The registry this engine (and the network built on it) records
    into. *)

val now_int : t -> int
(** Current simulated time in nanoseconds, as a native int. Inside an
    event handler this is the executing event's timestamp on {e every}
    engine — on a sharded engine the handler's own shard clock, never
    the round base — so time-dependent code (link serialization, packet
    timestamps) behaves identically at every shard count. From the
    coordinator between rounds it is the engine clock. *)

val now : t -> int64
(** {!now_int} as an [int64]. *)

val now_s : t -> float
(** Current simulated time in seconds. *)

val shards : t -> int
(** Number of event lanes (1 for the sequential engine). *)

val lookahead : t -> int64
(** The conservative lookahead in effect (configured or auto-tuned);
    [0L] on a single-shard engine. *)

val rounds : t -> int
(** Barrier rounds completed so far — the denominator of any
    round-overhead profile. Always [0] on a single-shard engine. *)

val shard_now : t -> shard:int -> int64
(** [shard_now t ~shard] is that shard's local clock: the timestamp of
    its last processed event. Meaningful from the shard's own handlers
    and from the coordinator between rounds. *)

type handle

val schedule_int : t -> delay:int -> (unit -> unit) -> handle
(** [schedule_int t ~delay f] runs [f] at [delay] nanoseconds after the
    caller's clock — the engine clock from the coordinator, the
    executing shard's clock from inside a handler (the event stays on
    that shard). [delay] must be non-negative — a negative delay raises
    [Invalid_argument] rather than being clamped, as does a delay that
    carries the clock past [max_int]. Events scheduled for the same
    instant on the same shard run in scheduling order. *)

val schedule : t -> delay:int64 -> (unit -> unit) -> handle
(** {!schedule_int} with an [int64] delay, which must fit a native
    int. *)

val schedule_s : t -> delay_s:float -> (unit -> unit) -> handle
(** Same with the delay in (fractional) seconds. *)

val post_int : t -> shard:int -> at:int -> (unit -> unit) -> handle
(** [post_int t ~shard ~at f] runs [f] at absolute simulated time [at] on
    [shard] — the shard-addressed primitive the PDES workloads are built
    on (it works identically at [shards = 1], where every post lands on
    the only lane). Posting to one's own shard, or from the coordinator
    between rounds, requires [at] not to precede the target's clock
    ([Invalid_argument] otherwise). Posting to {e another} shard from
    inside a round requires [at >= horizon] of the round in flight and
    raises {!Lookahead_violation} below it — never a silent reorder. *)

val post : t -> shard:int -> at:int64 -> (unit -> unit) -> handle
(** {!post_int} with an [int64] time, which must fit a native int. *)

val cancel : handle -> unit
(** Cancelling an already-run or already-cancelled event is a no-op.
    Cancel only from the shard that owns the event (or the coordinator
    between rounds). *)

val run : ?pool:Par.pool -> ?until:int64 -> ?max_events:int -> t -> unit
(** [run t] processes events until every queue is empty, the optional
    simulated-time bound [until] is passed, or [max_events] have run.
    On a single-shard engine this is the sequential loop and [pool] is
    ignored. On a sharded engine the rounds execute on [pool] when
    given (one {!Par.round} barrier per window), inline on the calling
    domain otherwise — both orders of execution produce bit-identical
    simulations. [max_events] is exact on a single shard and
    round-granular (checked at each barrier) on a sharded engine.
    Checks {!check_invariants} before returning. *)

val pending : t -> int
(** Number of events still queued across all shards (including
    cancelled ones not yet discarded). *)

val processed : t -> int
(** Total events executed since creation, across all shards. *)

val scheduled : t -> int
(** Total events ever scheduled since creation, across all shards. *)

val check_invariants : t -> unit
(** Raises [Invalid_argument] if the engine's bookkeeping is
    inconsistent: each shard's queue length must equal its scheduled
    minus popped events, processed events can exceed neither, outboxes
    must be empty at a barrier, and no clock may be negative. Called
    automatically at the end of every {!run}. *)
