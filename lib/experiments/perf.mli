(** Perf regression harness for the hot-path optimisation pass.

    Measures before/after pairs in one process — the binary Montgomery
    ladder vs the fixed-window exponentiation, stateless datapath
    transforms vs a precomputed session — plus cold RSA-512 one-time
    keygens/s, RSA-1024 CRT decryptions/s, the engine's event-heap
    churn, key-setup responses/s, whole-engine sim events/s, and the
    per-increment cost of obs counters (pre-resolved vs registry
    lookup). The "before" implementations are kept live (in
    {!Nat.Montgomery} and {!Core.Datapath}) so every run re-derives the
    speedups on the current machine. *)

type row = { name : string; ops_per_sec : float; note : string }

type result = {
  min_time : float;
  rows : row list;
  windowed_vs_binary : float;
  session_vs_stateless : float;
  sim_events_per_s : float;
  pdes_events_per_s : float;
      (** the sharded engine on the pdes token workload, 4 shards *)
  counter_resolved_ns : float;
  counter_lookup_ns : float;
}

val run : ?min_time:float -> unit -> result
(** [min_time] (default 0.4 s) is the wall-clock floor per measured
    operation; the [--quick] smoke run uses a small value. *)

val print : result -> unit

val to_json : result -> string
(** The BENCH_perf.json payload: rows, speedup ratios, and the
    metrics-overhead note. *)
