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
  latency : int; (* ns *)
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
  (* Instants the administrative state changed, newest first, back to
     one latency ago: what a delivery needs to recover the state at its
     packet's serialization end. *)
  mutable flips : int list;
  mutable perturb : perturb option;
  mutable gate : gate option;
  (* The drop-tail queue as (serialization end, bytes) pairs, oldest
     first: [count] pairs from int index [head] of [ring], whose length
     is 0 until the first send and a power of two after. *)
  mutable ring : int array;
  mutable head : int;
  mutable count : int;
  mutable queued_bytes : int;
  mutable busy_until : int;
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
    latency = Int64.to_int latency;
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
    flips = [];
    perturb = None;
    gate = None;
    ring = [||];
    head = 0;
    count = 0;
    queued_bytes = 0;
    busy_until = 0;
    max_queue_bytes = 0
  }

(* ns = bytes * 8 * 1e9 / bandwidth; 63 bits hold it for any packet
   under 500 MB. *)
let transmission_time t bytes = bytes * 8_000_000_000 / t.bandwidth_bps

let set_up t up =
  if up <> t.up then begin
    let now = Engine.now_int t.engine in
    t.flips <- now :: List.filter (fun f -> f > now - t.latency) t.flips;
    t.up <- up
  end

let is_up t = t.up
let set_perturb t f = t.perturb <- f
let set_gate t f = t.gate <- f

(* Whether the link was up at instant [at], a serialization end no
   later than that of any packet still in flight: the current state,
   flipped once per change made after [at]. A change at [at] itself
   counts as made before it. Changes up to [at] are forgotten. *)
let up_at t at =
  match t.flips with
  | [] -> t.up
  | flips ->
    let later = List.filter (fun f -> f > at) flips in
    t.flips <- later;
    if List.length later land 1 = 0 then t.up else not t.up

let count_drop t bytes reason =
  Obs.Counter.inc t.c_dropped_packets;
  Obs.Counter.add t.c_dropped_bytes bytes;
  Obs.Counter.inc
    (match reason with
    | Queue_full -> t.c_drop_queue
    | Link_down -> t.c_drop_down
    | Shed -> t.c_drop_shed)

(* The end of serialization decides a packet's fate: a link down at
   that instant loses it, otherwise it is sent. *)
let serialized t bytes ~up =
  if up then begin
    Obs.Counter.inc t.c_sent_packets;
    Obs.Counter.add t.c_sent_bytes bytes
  end
  else count_drop t bytes Link_down;
  up

(* Forget the packets whose serialization ended strictly before [now]. *)
let retire t now =
  let mask = Array.length t.ring - 1 in
  while t.count > 0 && Array.unsafe_get t.ring t.head < now do
    t.queued_bytes <- t.queued_bytes - Array.unsafe_get t.ring (t.head + 1);
    t.head <- (t.head + 2) land mask;
    t.count <- t.count - 1
  done

let enqueue t done_tx bytes =
  let len = Array.length t.ring in
  if 2 * t.count = len then begin
    let ring = Array.make (Int.max 16 (2 * len)) 0 in
    for i = 0 to len - 1 do
      ring.(i) <- t.ring.((t.head + i) land (len - 1))
    done;
    t.ring <- ring;
    t.head <- 0
  end;
  let i = (t.head + (2 * t.count)) land (Array.length t.ring - 1) in
  t.ring.(i) <- done_tx;
  t.ring.(i + 1) <- bytes;
  t.count <- t.count + 1

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
  else begin
    let now = Engine.now_int t.engine in
    retire t now;
    if t.queued_bytes + bytes > t.queue_capacity then begin
      count_drop t bytes Queue_full;
      Dropped Queue_full
    end
    else begin
      t.queued_bytes <- t.queued_bytes + bytes;
      if t.queued_bytes > t.max_queue_bytes then
        t.max_queue_bytes <- t.queued_bytes;
      Obs.Histogram.add t.h_queue t.queued_bytes;
      let done_tx = Int.max t.busy_until now + transmission_time t bytes in
      t.busy_until <- done_tx;
      enqueue t done_tx bytes;
      (* One event: the delivery, which looks back at the link's state
         at the end of serialization. A fault hook sees the packet
         there and may lose, corrupt, duplicate or delay (reorder) the
         wire image. *)
      ignore
        (Engine.schedule_int t.engine ~delay:(done_tx + t.latency - now)
           (fun () ->
             if serialized t bytes ~up:(up_at t done_tx) then
               match t.perturb with
               | None -> t.deliver p
               | Some f ->
                 List.iter
                   (fun (p, extra) ->
                     if Int64.equal extra 0L then t.deliver p
                     else
                       ignore
                         (Engine.schedule_int t.engine
                            ~delay:(Int64.to_int extra)
                            (fun () -> t.deliver p)))
                   (f p)));
      Sent
    end
  end

let stats t =
  { sent_packets = Obs.Counter.value t.c_sent_packets;
    sent_bytes = Obs.Counter.value t.c_sent_bytes;
    dropped_packets = Obs.Counter.value t.c_dropped_packets;
    dropped_bytes = Obs.Counter.value t.c_dropped_bytes;
    max_queue_bytes = t.max_queue_bytes
  }
