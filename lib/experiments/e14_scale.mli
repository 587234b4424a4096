(** E14 — the fluid-aggregate hybrid tier at AS scale.

    Three gates: (1) fluid vs per-packet equivalence on a small
    generated topology under a TCP-drop discrimination policy, (2)
    bit-identical cohort digests across engine shard counts (pool and
    no-pool), (3) a wall-clocked run with hundreds of generated domains
    and >= 10^6 simulated clients through the sharded engine.
    [netneutral scale] writes the result as BENCH_scale.json and exits
    1 unless every gate passes. *)

type scale_point = {
  shards : int;
  pooled : bool;
  events_per_s : float;
  point_digest : int;
}

type result = {
  eq_domains : int;
  eq_clients : int;
  eq_offered : int;
  eq_packet_delivered : int;
  eq_fluid_delivered : int;
  eq_ratio : float;  (** fluid / packet delivered bytes *)
  eq_ok : bool;
  inv_points : scale_point list;
  inv_ok : bool;
  domains : int;
  cohorts : int;
  clients : int;  (** simulated clients in the scale run *)
  steps : int;
  dt_ns : int64;
  lookahead_ns : int64;  (** auto-tuned from the generated topology *)
  seed : int;
  events : int;
  seconds : float;
  events_per_s : float;
  client_steps_per_s : float;
  offered_bytes : int;
  delivered_bytes : int;
  goodput_bps : float;  (** neutralizer-box goodput over the sim span *)
  digest : int;
  ok : bool;  (** every gate passed *)
}

val run :
  ?domains:int ->
  ?cohorts:int ->
  ?clients_per_cohort:int ->
  ?steps:int ->
  ?dt:int64 ->
  ?seed:int ->
  ?policed:int ->
  ?eq_domains:int ->
  ?eq_clients_per_domain:int ->
  unit ->
  result
(** Defaults: 400 domains, 1000 cohorts x 1000 clients (10^6 simulated
    clients), 64 kbit/s each, 100 steps of 50 ms, every 5th domain
    dropping TCP, 4 engine shards, 10% equivalence tolerance. *)

val print : result -> unit
val to_json : result -> string
