(** Pool of precomputed one-time RSA keypairs.

    The paper's escape hatch for the client's RSA bill: "the key
    generation can be precomputed offline" (§4). A client that keeps a
    few keypairs warm pays queue-pop latency at key setup instead of a
    full [Rsa.generate]; the pool is topped up in the background — in the
    simulator, by a periodic engine event standing in for idle CPU time.

    Determinism: the pool draws every key from the [generate] thunk it
    was created with, in FIFO order, and {e every} generator call —
    background refill, inline miss, explicit {!fill} — runs under the
    pool's one mutex. A seeded generator therefore yields the same take
    sequence whether or not engine-tick refills interleave with traffic;
    only the hit/miss counters depend on timing.

    Obs families (gauges [core.keypool.depth], [core.keypool.hit_rate];
    counters [core.keypool.hits], [core.keypool.misses],
    [core.keypool.keys_generated]) record pool behaviour. *)

type t

val create :
  ?obs:Obs.Registry.t ->
  target:int ->
  generate:(unit -> Crypto.Rsa.private_key) ->
  unit ->
  t
(** [target] is the steady-state depth refills aim for ([> 0]). *)

val take : t -> Crypto.Rsa.private_key
(** Pop the oldest pooled key, or generate inline (counted as a miss)
    when the pool is dry. *)

val put : t -> Crypto.Rsa.private_key -> unit
(** Return a key to the pool (e.g. a setup that never went out); also
    how benchmarks measure steady-state [take] without generating
    thousands of keys. *)

val refill_one : t -> bool
(** Generate one key if below target; [false] when already full. *)

val fill : t -> unit
(** Refill up to target synchronously. *)

val attach : t -> Net.Engine.t -> period:int64 -> unit
(** Schedule a background refill of at most one key every [period]
    simulated nanoseconds. Re-attaching replaces the previous refill
    loop. *)

val detach : t -> unit
(** Stop the background refill loop. *)

val depth : t -> int
val target : t -> int
val hits : t -> int
val misses : t -> int
