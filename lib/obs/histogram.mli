(** Log-linear bucketed histogram over non-negative integers.

    The value axis is split into powers of two, each power subdivided
    into [2^sub_bits] linear sub-buckets (HdrHistogram's scheme), so the
    relative width of any bucket is at most [2^-sub_bits] — with the
    default [sub_bits = 3], quantile estimates are within 12.5% of the
    true value. Values below [2^sub_bits] are recorded exactly.

    All state is integer bucket counts, so recording order cannot affect
    any derived statistic, and merging histograms is exact. *)

type t

val create : ?sub_bits:int -> unit -> t
(** [sub_bits] defaults to 3 (8 sub-buckets per octave); it must be in
    [1, 8]. *)

val sub_bits : t -> int

val add : t -> int -> unit
(** Record one observation. Raises [Invalid_argument] on negative
    values. *)

val count : t -> int
val sum : t -> int

val min_value : t -> int
(** Smallest recorded value; 0 when empty. *)

val max_value : t -> int
(** Largest recorded value; 0 when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1]: the bucket-midpoint estimate of
    the [q]-quantile, clamped to the recorded min/max. [nan] when
    empty. *)

val bucket_quantile :
  sub_bits:int ->
  count:int ->
  min_value:int ->
  max_value:int ->
  (int * int) list ->
  float ->
  float
(** The estimator behind {!quantile}, over a histogram's state as
    {!buckets} and the accessors beside it give it: what an exported
    snapshot holds, so the exporters and the live histogram share one
    rule. *)

val merge : into:t -> t -> unit
(** Add every recorded observation of the second histogram into [into].
    Raises [Invalid_argument] if the two differ in [sub_bits]. *)

val buckets : t -> (int * int) list
(** Non-empty buckets as [(index, count)] pairs in increasing index
    order — the exact internal state, used by the exporters. *)

val bounds_of_index : sub_bits:int -> int -> int * int
(** Inclusive [(lower, upper)] value range of a bucket index. *)

val index_of_value : sub_bits:int -> int -> int
(** The bucket a value falls into. *)
