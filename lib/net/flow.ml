type record = {
  mutable app : string;
  mutable sent : int;
  mutable received : int;
  mutable sent_bytes : int;
  mutable received_bytes : int;
  mutable latency_sum : float;
  mutable latency_max : float;
  mutable last_latency : float option;
  mutable jitter_sum : float;
  mutable jitter_count : int;
  mutable first_recv : int64 option;
  mutable last_recv : int64;
}

type t = (int, record) Hashtbl.t

type report = {
  flow_id : int;
  app : string;
  sent : int;
  received : int;
  sent_bytes : int;
  received_bytes : int;
  loss : float;
  mean_latency_ms : float;
  max_latency_ms : float;
  jitter_ms : float;
  throughput_bps : float;
}

let create () : t = Hashtbl.create 16

let record t flow_id =
  match Hashtbl.find_opt t flow_id with
  | Some r -> r
  | None ->
    let r =
      { app = "";
        sent = 0;
        received = 0;
        sent_bytes = 0;
        received_bytes = 0;
        latency_sum = 0.0;
        latency_max = 0.0;
        last_latency = None;
        jitter_sum = 0.0;
        jitter_count = 0;
        first_recv = None;
        last_recv = 0L
      }
    in
    Hashtbl.replace t flow_id r;
    r

let on_send t (p : Packet.t) =
  let r = record t p.meta.flow_id in
  if r.app = "" then r.app <- p.meta.app;
  r.sent <- r.sent + 1;
  r.sent_bytes <- r.sent_bytes + Packet.size p

let on_receive t ~now (p : Packet.t) =
  let r = record t p.meta.flow_id in
  r.received <- r.received + 1;
  r.received_bytes <- r.received_bytes + Packet.size p;
  let latency = Int64.to_float (Int64.sub now p.meta.sent_at) *. 1e-6 in
  r.latency_sum <- r.latency_sum +. latency;
  if latency > r.latency_max then r.latency_max <- latency;
  (match r.last_latency with
   | Some prev ->
     r.jitter_sum <- r.jitter_sum +. Float.abs (latency -. prev);
     r.jitter_count <- r.jitter_count + 1
   | None -> ());
  r.last_latency <- Some latency;
  if r.first_recv = None then r.first_recv <- Some now;
  r.last_recv <- now

let to_report flow_id (r : record) =
  let loss =
    if r.sent = 0 then 0.0
    else Float.max 0.0 (float_of_int (r.sent - r.received) /. float_of_int r.sent)
  in
  let span_s =
    match r.first_recv with
    | None -> 0.0
    | Some f -> Int64.to_float (Int64.sub r.last_recv f) *. 1e-9
  in
  { flow_id;
    app = r.app;
    sent = r.sent;
    received = r.received;
    sent_bytes = r.sent_bytes;
    received_bytes = r.received_bytes;
    loss;
    mean_latency_ms =
      (if r.received = 0 then 0.0 else r.latency_sum /. float_of_int r.received);
    max_latency_ms = r.latency_max;
    jitter_ms =
      (if r.jitter_count = 0 then 0.0
       else r.jitter_sum /. float_of_int r.jitter_count);
    throughput_bps =
      (if span_s <= 0.0 then 0.0
       else float_of_int (8 * r.received_bytes) /. span_s)
  }

(* Reports for traffic that never existed as packets: the fluid-aggregate
   tier measures whole cohorts analytically and renders them in the same
   shape the packet instrument produces, so experiment tables mix tiers
   freely. *)
let synthetic ~flow_id ~app ~sent ~received ~sent_bytes ~received_bytes
    ~mean_latency_ms ~max_latency_ms ~jitter_ms ~duration_s =
  { flow_id;
    app;
    sent;
    received;
    sent_bytes;
    received_bytes;
    loss =
      (if sent = 0 then 0.0
       else Float.max 0.0 (float_of_int (sent - received) /. float_of_int sent));
    mean_latency_ms;
    max_latency_ms;
    jitter_ms;
    throughput_bps =
      (if duration_s <= 0.0 then 0.0
       else float_of_int (8 * received_bytes) /. duration_s)
  }

let report t ~flow_id =
  Option.map (to_report flow_id) (Hashtbl.find_opt t flow_id)


(* Simplified E-model: R = 93.2 - latency impairment - loss impairment,
   then the standard R -> MOS mapping, clamped to [1, 4.5]. *)
let mos r =
  let d = r.mean_latency_ms +. (2.0 *. r.jitter_ms) in
  let id = (0.024 *. d) +. if d > 177.3 then 0.11 *. (d -. 177.3) else 0.0 in
  let ie = 30.0 *. log (1.0 +. (15.0 *. r.loss)) in
  let rf = 93.2 -. id -. ie in
  let mos =
    if rf < 0.0 then 1.0
    else if rf > 100.0 then 4.5
    else 1.0 +. (0.035 *. rf) +. (rf *. (rf -. 60.0) *. (100.0 -. rf) *. 7e-6)
  in
  Float.max 1.0 (Float.min 4.5 mos)
