(** Capped exponential backoff with deterministic jitter.

    The k-th retry waits [min cap (base * multiplier^(k-1))] ns, minus a
    jittered fraction of itself: the returned delay lies in
    [[d - floor(jitter * d), d]] where [d] is the capped exponential
    term. Jitter draws come from a {!Fault.Prng.t} child stream, so two
    runs with equal seeds produce byte-identical retry timelines —
    overload experiments stay reproducible (OVERLOAD_SEED, see
    {!Seed.env}).

    A backoff instance only computes delays; whether a retry may be
    spent at all is the caller's retry {e budget} (a shared
    {!Token_bucket.t}), keeping the storm-control decision global to the
    client while the pacing decision stays per-destination. *)

type config = {
  base : int64;  (** first retry delay, ns; must be positive *)
  cap : int64;  (** upper bound on the un-jittered delay; >= base *)
  multiplier : float;  (** growth per attempt; must be >= 1.0 *)
  jitter : float;  (** fraction of the delay randomized away; in [0, 1) *)
}

val validate : config -> unit
(** Raises [Invalid_argument] on a malformed config. *)

type t

val create : ?config:config -> prng:Fault.Prng.t -> unit -> t
(** [config] defaults to a 50 ms base, 2x growth, a 5 s cap and 0.5
    jitter. [prng] should be a child stream ({!Fault.Prng.split})
    labeled by the destination, so per-destination timelines are
    independent of one another and of draw order elsewhere. *)

val next : t -> int64
(** Delay before the next retry; advances the attempt counter. *)

val reset : t -> unit
(** Back to the first-attempt delay (call on success). *)

val attempts : t -> int
(** Retries handed out since the last {!reset}. *)
