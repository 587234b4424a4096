type stats = {
  sent_packets : int;
  sent_bytes : int;
  dropped_packets : int;
  dropped_bytes : int;
  max_queue_bytes : int;
}

type drop_reason = Queue_full | Link_down | Shed

type send_result = Sent | Dropped of drop_reason

type gate = Packet.t -> bool

type perturb = Packet.t -> (Packet.t * int64) list

(* The running totals live in the engine's obs registry as monotonic
   counters (family net.link.*, labeled by link); [stats] reads them. *)
type t = {
  engine : Engine.t;
  bandwidth_bps : int;
  latency : int64;
  queue_capacity : int;
  deliver : Packet.t -> unit;
  c_sent_packets : Obs.Counter.t;
  c_sent_bytes : Obs.Counter.t;
  c_dropped_packets : Obs.Counter.t;
  c_dropped_bytes : Obs.Counter.t;
  c_drop_queue : Obs.Counter.t;
  c_drop_down : Obs.Counter.t;
  c_drop_shed : Obs.Counter.t;
  h_queue : Obs.Histogram.t;
  mutable up : bool;
  mutable perturb : perturb option;
  mutable gate : gate option;
  mutable queued_bytes : int;
  mutable busy_until : int64;
  mutable max_queue_bytes : int;
}

let anon_seq = ref 0

let create engine ~bandwidth_bps ~latency ?(queue_bytes = 128 * 1024) ?label
    ~deliver () =
  if bandwidth_bps <= 0 then invalid_arg "Link.create: bandwidth must be positive";
  let label =
    match label with
    | Some l -> l
    | None ->
      incr anon_seq;
      Printf.sprintf "link-%d" !anon_seq
  in
  let obs = Engine.obs engine in
  let labels = [ ("link", label) ] in
  let drop_counter reason =
    Obs.Registry.counter obs
      ~labels:(("reason", reason) :: labels)
      "net.link.drops"
  in
  { engine;
    bandwidth_bps;
    latency;
    queue_capacity = queue_bytes;
    deliver;
    c_sent_packets = Obs.Registry.counter obs ~labels "net.link.sent_packets";
    c_sent_bytes = Obs.Registry.counter obs ~labels "net.link.sent_bytes";
    c_dropped_packets =
      Obs.Registry.counter obs ~labels "net.link.dropped_packets";
    c_dropped_bytes = Obs.Registry.counter obs ~labels "net.link.dropped_bytes";
    c_drop_queue = drop_counter "queue";
    c_drop_down = drop_counter "down";
    c_drop_shed = drop_counter "shed";
    h_queue =
      Obs.Registry.histogram obs ~labels "net.link.queue_occupancy_bytes";
    up = true;
    perturb = None;
    gate = None;
    queued_bytes = 0;
    busy_until = 0L;
    max_queue_bytes = 0
  }

let transmission_time t bytes =
  (* ns = bytes * 8 * 1e9 / bandwidth; computed in int64 to avoid
     overflow on large byte counts. *)
  Int64.div
    (Int64.mul (Int64.of_int (bytes * 8)) 1_000_000_000L)
    (Int64.of_int t.bandwidth_bps)

let set_up t up = t.up <- up
let is_up t = t.up
let set_perturb t f = t.perturb <- f
let set_gate t f = t.gate <- f

let count_drop t bytes reason =
  Obs.Counter.inc t.c_dropped_packets;
  Obs.Counter.add t.c_dropped_bytes bytes;
  Obs.Counter.inc
    (match reason with
    | Queue_full -> t.c_drop_queue
    | Link_down -> t.c_drop_down
    | Shed -> t.c_drop_shed)

(* End of serialization: hand the packet to the propagation stage, where
   the fault layer's perturbation hook may lose, corrupt, duplicate or
   delay (reorder) the wire image. Without a hook the delivery is
   scheduled directly, with no list per hop. *)
let propagate t p =
  match t.perturb with
  | None -> ignore (Engine.schedule t.engine ~delay:t.latency (fun () -> t.deliver p))
  | Some f ->
    List.iter
      (fun (p, extra) ->
        ignore
          (Engine.schedule t.engine ~delay:(Int64.add t.latency extra)
             (fun () -> t.deliver p)))
      (f p)

let send t p =
  let bytes = Packet.size p in
  if not t.up then begin
    count_drop t bytes Link_down;
    Dropped Link_down
  end
  else if
    (* Policy shedding is checked before the queue so an admission
       decision is never misread as congestion (distinct drop reason,
       distinct counter). *)
    match t.gate with Some g -> not (g p) | None -> false
  then begin
    count_drop t bytes Shed;
    Dropped Shed
  end
  else if t.queued_bytes + bytes > t.queue_capacity then begin
    count_drop t bytes Queue_full;
    Dropped Queue_full
  end
  else begin
    let now = Engine.now t.engine in
    t.queued_bytes <- t.queued_bytes + bytes;
    if t.queued_bytes > t.max_queue_bytes then
      t.max_queue_bytes <- t.queued_bytes;
    Obs.Histogram.add t.h_queue t.queued_bytes;
    let start = if Int64.compare t.busy_until now > 0 then t.busy_until else now in
    let done_tx = Int64.add start (transmission_time t bytes) in
    t.busy_until <- done_tx;
    (* Dequeue at end of serialization; deliver after propagation. A
       link taken down mid-serialization drops the in-flight packet. *)
    ignore
      (Engine.schedule t.engine
         ~delay:(Int64.sub done_tx now)
         (fun () ->
           t.queued_bytes <- t.queued_bytes - bytes;
           if not t.up then count_drop t bytes Link_down
           else begin
             Obs.Counter.inc t.c_sent_packets;
             Obs.Counter.add t.c_sent_bytes bytes;
             propagate t p
           end));
    Sent
  end

let stats t =
  { sent_packets = Obs.Counter.value t.c_sent_packets;
    sent_bytes = Obs.Counter.value t.c_sent_bytes;
    dropped_packets = Obs.Counter.value t.c_dropped_packets;
    dropped_bytes = Obs.Counter.value t.c_dropped_bytes;
    max_queue_bytes = t.max_queue_bytes
  }
