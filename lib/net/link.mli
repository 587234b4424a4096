(** A unidirectional link: a drop-tail FIFO queue in front of a serializing
    transmitter, followed by fixed propagation delay.

    A packet of [n] bytes occupies the transmitter for [8n / bandwidth]
    seconds; packets arriving while the queue holds [queue_bytes] are
    dropped. This is the standard store-and-forward model, and the place
    where a discriminatory ISP's delaying/dropping (as opposed to
    classifying) ultimately takes effect.

    {2 One event per packet}

    A FIFO link knows when a packet's serialization will end as soon as
    it is queued, so a send schedules one engine event: the delivery, a
    latency after that end. There is no
    dequeue event. Each link keeps a ring of (serialization end, bytes)
    pairs, allocated at its first send, and every send first retires
    the pairs whose serialization ended {e strictly} before now. A send
    at the very instant a packet's serialization ends therefore still
    counts that packet as queued. A separate dequeue event at the
    serialization end gave the same answer whenever the sending event
    was queued before the departing packet was sent, because the
    earlier-queued event ran first at the tie. That is the usual case
    on a path: the next packet's arrival is scheduled a whole upstream
    latency ahead. So the strict rule keeps the order the two-event
    link produced on every benchmark workload; retiring at [<=] instead
    changes the AS-scale digest.

    The administrative state is judged at the serialization end. A
    packet whose serialization ends while the link is down is dropped
    as [Link_down] when its delivery falls due, even if the link is up
    again by then. A link that goes down after that end, or goes down
    and comes back up within one serialization, still delivers.
    {!set_up} keeps its state changes for one latency to answer this,
    and a change at the serialization end itself counts as made before
    it. The [sent] counters move at the delivery instant, so they match
    a dequeue-at-serialization-end model once the engine drains.

    {2 The fault stage}

    A perturbation hook ({!set_perturb}) runs inside the delivery event,
    after the link-state check: it sees each packet that survives that
    check once, in FIFO order per link, at its delivery instant, and
    never sees a packet dropped as [Link_down]. A packet it returns with
    no extra delay is delivered at once; one with an extra delay is
    delivered that much later.

    Each link publishes monotonic counters [net.link.sent_packets],
    [net.link.sent_bytes], [net.link.dropped_packets],
    [net.link.dropped_bytes], a per-reason [net.link.drops{reason}]
    family and a [net.link.queue_occupancy_bytes] histogram (sampled at
    every enqueue) into the engine's obs registry, labeled
    [link=<label>]. {!stats} reads those counters.

    Two control surfaces exist for the fault layer: an administrative
    up/down state ({!set_up}) modeling link failure, and a perturbation
    hook ({!set_perturb}) applied to each packet as it arrives, modeling
    in-flight loss, corruption, duplication and reordering. *)

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
    reordering against later traffic. An extra delay must not be
    negative. *)

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
    Link_down]) and drops every packet whose serialization ends while
    it is down. *)

val is_up : t -> bool

val set_perturb : t -> perturb option -> unit
(** Installs (or clears) the fault-injection hook run at each delivery.
    The default is the identity ([[(p, 0L)]]). The hook in place at a
    packet's delivery instant is the one that sees it. *)

val set_gate : t -> gate option -> unit
(** Installs (or clears) an admission gate consulted on every {!send}
    while the link is up, before the queue-capacity check. A refused
    packet is dropped as [Shed] and counted under
    [net.link.drops{reason="shed"}], keeping load shedding separable
    from [Queue_full] congestion in every drop table. *)

val stats : t -> stats
