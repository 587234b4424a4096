(** Per-flow measurement: the instrument behind every experiment's
    throughput / latency / loss / MOS numbers. *)

type t

type report = {
  flow_id : int;
  app : string;
  sent : int;
  received : int;
  sent_bytes : int;
  received_bytes : int;
  loss : float;  (** fraction of sent packets never delivered *)
  mean_latency_ms : float;
  max_latency_ms : float;
  jitter_ms : float;  (** mean absolute latency delta between packets *)
  throughput_bps : float;  (** received bytes over the observation span *)
}

val create : unit -> t

val on_send : t -> Packet.t -> unit
(** Call when the application injects the packet (its [meta.sent_at] must
    be the current engine time). *)

val on_receive : t -> now:int64 -> Packet.t -> unit
(** Call at final delivery to the application. *)

val report : t -> flow_id:int -> report option

val synthetic :
  flow_id:int ->
  app:string ->
  sent:int ->
  received:int ->
  sent_bytes:int ->
  received_bytes:int ->
  mean_latency_ms:float ->
  max_latency_ms:float ->
  jitter_ms:float ->
  duration_s:float ->
  report
(** Build a report from externally-measured totals — the constructor the
    fluid-aggregate tier ({!Aggregate}) uses so cohort statistics come
    out in the same shape as packet-level flows. [loss] is derived from
    [sent]/[received] and [throughput_bps] from [received_bytes] over
    [duration_s]. *)

(** [mos r] maps loss and latency to a crude E-model style VoIP
    mean-opinion-score in [1.0, 4.5] — the "can you still hear the other
    side" metric of experiment E5. *)
val mos : report -> float
