(** Experiment E13 — graceful degradation under overload.

    A single neutralizer with a deliberately slow 1 ms RSA key setup
    (1000 setups/s of capacity) faces an open-loop swarm of requesters
    sweeping offered load from 0.5x to 10x capacity. Every request
    carries a deadline; replies that miss it are wasted work.

    Each load point runs twice: with the overload machinery OFF (FIFO
    service, immediate retransmits — past 1x the queue outgrows every
    deadline and timeout-driven retries drive congestion collapse) and
    ON (neutralizer admission control via
    {!Core.Neutralizer.enable_admission}, plus client-side jittered
    backoff, retry budgets, and circuit breakers). The acceptance bar:
    at 10x load the ON rows sustain at least 80% of capacity goodput
    while the OFF rows collapse below 50%.

    All randomness derives from one SplitMix64 root seeded by
    [OVERLOAD_SEED] (see {!Fault.Prng.env_seed}); equal seeds produce
    byte-identical tables. *)

type row = {
  mode : string;  (** ["on"] or ["off"] *)
  multiplier : float;  (** offered load as a multiple of capacity *)
  offered_pps : int;
  box_served : int;  (** RSA key setups the box actually performed *)
  box_shed : int;  (** requests refused by admission control *)
  goodput : int;  (** replies that arrived within their deadline *)
  goodput_pct : float;  (** goodput as % of box capacity over the run *)
  give_ups : int;  (** requests abandoned after retries were exhausted *)
  breaker_opens : int;  (** circuit-breaker open transitions, all sources *)
  p95_latency_ms : float;  (** of successful setups *)
}

type result = {
  seed : int;
  chaos : bool;
  duration_s : float;
  capacity_pps : int;
  capacity_ops : int;  (** capacity_pps * duration *)
  rows : row list;
}

val run :
  ?seed:int ->
  ?chaos:bool ->
  ?quick:bool ->
  ?multipliers:float list ->
  ?duration_s:float ->
  unit ->
  result
(** [run ()] sweeps [multipliers] (default 0.5–10x; [~quick:true] runs
    just 1x and 10x over a shorter horizon). [~chaos:true] composes with
    {!Fault.Inject}: the box crashes mid-run and restarts, exercising
    breaker open/half-open/close against a real outage. *)

val to_rows : result -> string list list
(** Pure rendering of the table body — the determinism hook: equal
    results yield equal cells. *)

val print : result -> unit
