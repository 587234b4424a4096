(** Token-bucket traffic shaping — the mechanism behind "intentionally
    slow down a competitor's service" (§1).

    A shaper holds a bucket refilled at [rate_bps]; a matching packet
    either spends tokens and passes, is delayed until tokens accrue
    (bounded by [max_delay]), or is dropped once the virtual queue is too
    long. *)

type t

val create :
  Net.Engine.t -> rate_bps:int -> burst_bytes:int -> max_delay:int64 -> t
(** [max_delay] bounds the virtual queue, in ns; packets that would wait
    longer drop. {!Dsl.throttle} holds the defaults policies use. *)

val decide : t -> size:int -> Net.Network.action
(** Charge a packet of [size] bytes against the bucket. *)

val delayed : t -> int
val dropped : t -> int
