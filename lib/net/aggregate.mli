(** Fluid-aggregate hybrid simulation tier.

    The packet tier costs one event per packet per hop; at a million
    clients that is unpayable. This tier simulates a {e cohort} —
    thousands of same-behaved clients in one domain sending to one
    destination — as a single object holding integer rate/byte-count
    state, advanced by one rate-update event per grid step [dt] along
    its routed path. Link contention is fluid: each directed edge
    accumulates this step's offered bytes, and a cohort crossing it is
    attenuated by [capacity / previous-step load] when the edge was
    overloaded (one-step lag).

    {e Spill-to-packet}: domains with a non-empty policy table
    ({!Network.policed}), and the neutralizer box's domain when it
    terminates the path, are boundaries where fluid abstraction would
    hide exactly the behavior this repo studies. There the cohort's
    bytes stop and a few representative packets carrying the cohort's
    real protocol/DSCP/port fields are injected at the entry router —
    middleware chains, TTL and the box access link apply unmodified —
    and the measured pass ratio rescales the cohort. Transit boundaries
    re-aggregate to fluid on egress at the next grid step.

    {e Determinism}: with a sharded {!Engine} (with or without a
    {!Par.pool}) the final {!digest} is bit-identical at every shard
    count. All cross-cohort state is either atomic-integer adds (load
    buffers, statistics — order-insensitive) or packet-tier state
    serialized by unique per-cohort event timestamps. [dt] is clamped up
    to the engine's lookahead so consecutive grid steps always fall in
    different conservative rounds. Boundary middleware and handlers must
    be safe to run on the boundary domain's shard.

    Usage: build the topology, create the (optionally sharded) engine
    and network, install policies, then [create] the aggregate,
    [add_cohort] for each client population, [launch], and
    {!Engine.run}. Experiment E14 drives this at AS scale on
    {!Topogen} graphs. *)

type t

type stats = {
  cohorts : int;
  clients : int;  (** simulated clients across all cohorts *)
  steps : int;
  duration_s : float;  (** simulated span of the emission grid *)
  offered_bytes : int;
  delivered_bytes : int;
  spilled_bytes : int;  (** bytes that crossed a spill boundary *)
  spill_pkts_sent : int;  (** representative packets injected *)
  spill_pkts_back : int;  (** representatives that survived the boundary *)
  box_goodput_bytes : int;  (** bytes delivered at neutralizer boxes *)
}

val create :
  ?spill_pkts:int -> ?pkt_bytes:int -> dt:int64 -> steps:int -> Network.t -> t
(** [create ~dt ~steps net] prepares the fluid tier over [net]'s
    topology as it exists now (links added later are rejected at
    {!add_cohort}). [dt] (ns) is the rate-update step, silently clamped
    up to the engine's conservative lookahead; [steps] is how many grid
    steps cohorts emit for. [spill_pkts] (default 8) representative
    packets of [pkt_bytes] (default 1200, wire size) measure each
    boundary crossing — granularity of the measured pass ratio is
    [1/spill_pkts]. Raises [Invalid_argument] on degenerate parameters,
    or on a sharded engine whose topology has no cross-shard link. *)

val add_cohort :
  ?app:string ->
  ?protocol:Packet.protocol ->
  ?dscp:int ->
  ?dst_port:int ->
  t ->
  src:Topology.node_id ->
  dst:Ipaddr.t ->
  clients:int ->
  rate_bps:int ->
  unit ->
  int
(** [add_cohort t ~src ~dst ~clients ~rate_bps ()] registers [clients]
    clients behind node [src] (normally the domain's gateway router)
    each sending [rate_bps] toward [dst] (unicast or anycast), and
    returns the cohort id. The header fields are what boundary policies
    get to see. The path and its spill points are resolved against the
    routing tables and policy placement {e now}. Raises
    [Invalid_argument] when unroutable, already launched, or the
    per-step emission rounds to zero bytes. *)

val launch : t -> unit
(** Schedule every cohort's rate-update events and the load-buffer
    ticker. Call once, after all cohorts are added and before
    {!Engine.run} first advances the engine. *)

val clients : t -> int
(** Total simulated clients registered so far. *)

val dt : t -> int64
(** The effective step (after lookahead clamping). *)

val stats : t -> stats
(** Aggregate totals; meaningful once {!Engine.run} has returned. *)

val reports : t -> Flow.report list
(** Per-cohort results in {!Flow.report} form (packet counts are
    [pkt_bytes]-equivalents; jitter is not modeled and reads 0),
    directly comparable with packet-tier flows — the equivalence gate of
    experiment E14 relies on this. *)

val digest : t -> int
(** 62-bit fold of every cohort's final counters in cohort order. Equal
    seeds, cohorts and parameters must produce equal digests at every
    shard count, pool or no pool — checked by [test/test_scale.ml] and
    the [netneutral scale] gate. *)
