(** A classic token bucket against the simulated clock.

    The bucket holds at most [burst] tokens and refills continuously at
    [rate] tokens per second of simulated time. A grant of cost [c]
    succeeds only when at least [c] tokens are present, so over any
    interval of length [t] seconds the bucket conserves work: the sum of
    granted costs never exceeds [rate * t + burst]. The conservation
    bound is a qcheck property in [test/test_overload.ml].

    Shared by the pushback controller's per-aggregate rate limits, the
    neutralizer's per-source admission control, and the client's retry
    budget — one arithmetic, three policies. *)

type config = {
  rate : float;  (** tokens per second of simulated time; must be >= 0 *)
  burst : float;  (** bucket capacity; must be > 0 *)
}

type t

val create : config -> now:int64 -> t
(** Starts full ([burst] tokens) at simulated time [now] (ns). Raises
    [Invalid_argument] on a negative rate or non-positive burst. *)

val take : ?cost:float -> t -> now:int64 -> bool
(** Refill up to [now], then spend [cost] tokens (default [1.0]) if
    available. Time never runs backwards: a [now] earlier than the last
    refill is treated as the last refill instant. *)

val granted : t -> int
(** Number of successful {!take}s since creation. *)

val denied : t -> int
(** Number of refused {!take}s since creation. *)
