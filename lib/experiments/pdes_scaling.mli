(** Shard-count scaling sweep over the parallel event engine.

    Runs a synthetic token workload — tokens hopping a ring of stub
    domains built as a real {!Net.Topology}, intra-domain hops cheap and
    local, cross-domain hops bounded below by the link latency that
    funds the engine's conservative lookahead — at several shard counts,
    measuring events/s and digesting the per-node XOR accumulators and
    arrival counts at each point. Every digest must equal the
    [shards = 1] reference (the sequential engine), including each shard
    count re-run without a pool (same rounds, one domain), which is the
    sharded engine's contract: parallel = bit-identical to sequential. *)

type workload = {
  digest : string;  (** hex SHA-256 over per-node accumulators/counts *)
  events : int;  (** events processed by the engine *)
  seconds : float;  (** wall-clock time of the run *)
  rounds : int;  (** barrier rounds the engine needed (0 sequential) *)
  lookahead : int64;  (** the window the engine's auto-tuner settled on *)
}

val run_workload :
  ?domains:int ->
  ?hosts_per_domain:int ->
  ?tokens:int ->
  ?hops:int ->
  ?seed:int ->
  shards:int ->
  pool:Par.pool option ->
  unit ->
  workload
(** One run of the token workload at a given shard count, on [pool]
    when given (the pool's size is independent of [shards]) or on the
    calling domain otherwise. Deterministic: the digest is a pure
    function of the topology parameters, [tokens], [hops] and [seed] —
    never of [shards] or [pool]. Also the building block for the perf
    harness's [pdes_events_per_s] and the [test/test_pdes.ml]
    equivalence properties. *)

type point = {
  shards : int;
  pool : int;  (** pool size of the parallel run: [min shards (Par.recommended ())] *)
  events_per_s : float;  (** parallel run on that pool *)
  rounds : int;  (** conservative rounds the pooled run executed *)
  events_per_round : float;  (** barrier amortization: higher is cheaper *)
  us_per_round : float;  (** wall-clock per round, barrier included *)
  lookahead_ns : int64;  (** auto-tuned window at this shard count *)
  digest : string;
  seq_digest : string;  (** same shard count, no pool: round reference *)
}

type result = {
  domains : int;
  hosts_per_domain : int;
  tokens : int;
  hops : int;
  lookahead_ns : int64;  (** widest auto-tuned window seen in the sweep *)
  total_events : int;
  points : point list;
  equivalent : bool;  (** every digest matches the shards=1 reference *)
  best_speedup : float;
}

val run :
  ?shard_counts:int list ->
  ?domains:int ->
  ?hosts_per_domain:int ->
  ?tokens:int ->
  ?hops:int ->
  ?seed:int ->
  unit ->
  result
(** Default sweep: shard counts 1, 2 and 4 over an 8-domain ring. *)

val print : result -> unit

val to_json : result -> string
(** The BENCH_pdes.json payload: per-shard-count throughput, speedups
    and the equivalence digests. *)
