(** A unidirectional link: a drop-tail FIFO queue in front of a serializing
    transmitter, followed by fixed propagation delay.

    A packet of [n] bytes occupies the transmitter for [8n / bandwidth]
    seconds; packets arriving while the queue holds [queue_bytes] are
    dropped. This is the standard store-and-forward model, and the place
    where a discriminatory ISP's delaying/dropping (as opposed to
    classifying) ultimately takes effect.

    Each link publishes monotonic counters [net.link.sent_packets],
    [net.link.sent_bytes], [net.link.dropped_packets],
    [net.link.dropped_bytes], a per-reason [net.link.drops{reason}]
    family and a [net.link.queue_occupancy_bytes] histogram (sampled at
    every enqueue) into the engine's obs registry, labeled
    [link=<label>]. {!stats} reads those counters.

    Two control surfaces exist for the fault layer: an administrative
    up/down state ({!set_up}) modeling link failure, and a perturbation
    hook ({!set_perturb}) applied to each packet at the start of
    propagation, modeling in-flight loss, corruption, duplication and
    reordering. *)

type t

type stats = {
  sent_packets : int;
  sent_bytes : int;
  dropped_packets : int;
  dropped_bytes : int;
  max_queue_bytes : int;
}

type drop_reason =
  | Queue_full  (** drop-tail: the FIFO was full on arrival *)
  | Link_down  (** the link is administratively down (fault injection) *)
  | Shed  (** refused by an admission gate ({!set_gate}) — policy, not
              congestion *)

type send_result = Sent | Dropped of drop_reason

type gate = Packet.t -> bool
(** An admission gate; [false] sheds the packet before it is queued. *)

type perturb = Packet.t -> (Packet.t * int64) list
(** A perturbation maps one transmitted packet to the list of
    [(packet, extra_delay_ns)] actually delivered: [[]] is loss, a
    modified packet is corruption of the wire image, two entries are
    duplication, and a positive extra delay causes (bounded)
    reordering against later traffic. *)

val create :
  Engine.t ->
  bandwidth_bps:int ->
  latency:int64 ->
  ?queue_bytes:int ->
  ?label:string ->
  deliver:(Packet.t -> unit) ->
  unit ->
  t
(** [queue_bytes] defaults to 128 KiB. [label] names the link's metric
    family (defaults to a fresh ["link-N"]). [deliver] fires at the
    receiving end after serialization and propagation. *)

val send : t -> Packet.t -> send_result
(** [send t p] enqueues [p]; [Dropped reason] tells the caller why the
    packet did not make it onto the wire, so every drop can be routed
    to an obs counter with a reason label. *)

val set_up : t -> bool -> unit
(** Administrative state. A down link refuses new packets ([Dropped
    Link_down]) and drops packets still in its transmit queue when
    their serialization completes. *)

val is_up : t -> bool

val set_perturb : t -> perturb option -> unit
(** Installs (or clears) the fault-injection hook run at the start of
    propagation. The default is the identity ([[(p, 0L)]]). *)

val set_gate : t -> gate option -> unit
(** Installs (or clears) an admission gate consulted on every {!send}
    while the link is up, before the queue-capacity check. A refused
    packet is dropped as [Shed] and counted under
    [net.link.drops{reason="shed"}], keeping load shedding separable
    from [Queue_full] congestion in every drop table. *)

val stats : t -> stats
