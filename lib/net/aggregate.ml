(* Fluid-aggregate hybrid tier: one simulation object per *cohort* —
   thousands of clients in a domain sending to one destination — advanced
   by coarse rate-update events on the step grid t_k = k*dt instead of
   per-packet events. Traffic is integer bytes-per-step flowing along the
   cohort's routed path; link contention uses the previous step's total
   load on each directed edge (one-step-lag fluid approximation).

   Boundary domains — any domain whose policy table is non-empty, plus
   the neutralizer box's domain when it terminates the path — get
   *spill-to-packet* treatment: the fluid stops at the domain's entry
   router and a handful of representative packets carrying the cohort's
   real header fields are injected there, so discrimination policies
   written for the packet tier (middleware chains, TTL, real link
   queues on the box's access link) apply unmodified. The measured pass
   ratio re-scales the cohort's bytes; transit boundaries re-aggregate
   to fluid on egress at the next grid step.

   Determinism under sharding (the digest must be bit-identical at every
   shard count, pool or no pool):
   - per-edge loads live in three rotating arrays of atomic ints: step k
     writes buf[k mod 3] with commutative fetch-and-add (order-free),
     reads buf[(k-1) mod 3], which no step-k event writes; a ticker on
     shard 0 zeroes buf[(k+1) mod 3] at t_k. With dt >= lookahead,
     consecutive grid steps land in different conservative rounds, so
     the round barrier orders writers before readers.
   - cohort statistics are atomic-int accumulators (adds and CAS-max,
     both order-insensitive).
   - every spill injection is timestamped t + segment-latency + a
     per-cohort 1ns jitter, so packet events never tie across cohorts
     and link serialization, queue drops and stateful middleware see one
     deterministic order regardless of how cross-shard outboxes merged.
   - cross-shard spill posts ride the path latency into the boundary
     domain, which includes a cross-shard edge whenever the shard
     changes, so the post lands at or beyond the round horizon by
     construction (no Lookahead_violation on auto-tuned engines). *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* Arrival counters of one cohort at one spill target. All mutation
   happens on the station node's shard: the injection event resets the
   cell, delivered probe packets bump it, the harvest event reads it
   half a step later. *)
type cell = {
  mutable a_count : int;
  mutable a_bytes : int;
  mutable a_lat_ns : int64;
}

type spill = {
  entry : int;  (* path index where the boundary domain is entered *)
  egress : int;  (* last path index still inside it *)
  terminal : bool;  (* the path ends inside this domain *)
  target : Ipaddr.t;  (* concrete probe destination (never anycast) *)
  station_node : Topology.node_id;
  entry_node : Topology.node_id;
  entry_shard : int;
  cell : cell;  (* shared by the cohort's spills with this station *)
}

type dir_edge = {
  cap_step : int;  (* bytes the channel carries per dt *)
  e_lat : int64;
  queue : int;
  bw : int;
  idx : int;  (* index into the load buffers *)
}

type cohort = {
  id : int;
  app : string;
  protocol : Packet.protocol;
  dscp : int;
  dst_port : int;
  clients : int;
  rate_bps : int;  (* per client *)
  src : Topology.node_id;
  dst : Ipaddr.t;
  path : Topology.node_id array;
  edges : dir_edge array;  (* edges.(i) carries path.(i) -> path.(i + 1) *)
  spills : spill array;  (* ascending entry index *)
  shard : int;
  per_step : int;  (* offered bytes per grid step *)
  path_lat_ns : int64;
  mutable offered_bytes : int;  (* cohort-shard events only *)
  delivered_bytes : int Atomic.t;
  spilled_bytes : int Atomic.t;
  spill_sent : int Atomic.t;
  spill_back : int Atomic.t;
  lat_prod : int Atomic.t;  (* sum of delivered-KiB * latency-us chunks *)
  max_lat_us : int Atomic.t;
}

type stats = {
  cohorts : int;
  clients : int;
  steps : int;
  duration_s : float;
  offered_bytes : int;
  delivered_bytes : int;
  spilled_bytes : int;
  spill_pkts_sent : int;
  spill_pkts_back : int;
  box_goodput_bytes : int;
}

type t = {
  net : Network.t;
  engine : Engine.t;
  topo : Topology.t;
  dt : int64;
  half_dt : int64;
  steps : int;
  spill_pkts : int;
  pkt_bytes : int;
  payload : string;
  dirs : (Topology.node_id * Topology.node_id, dir_edge) Hashtbl.t;
      (* read only by [add_cohort]: a cohort keeps its path's records *)
  loads : int Atomic.t array array;  (* 3 rotating buffers x directed edge *)
  box_goodput : int Atomic.t;
  mutable cohorts_rev : cohort list;
  mutable cohorts : cohort array;
  mutable next_id : int;
  mutable launched : bool;
}

let dt t = t.dt

let create ?(spill_pkts = 8) ?(pkt_bytes = 1200) ~dt ~steps net =
  if steps <= 0 then invalid_arg "Aggregate.create: steps must be positive";
  if Int64.compare dt 0L <= 0 then
    invalid_arg "Aggregate.create: dt must be positive";
  if spill_pkts < 1 then
    invalid_arg "Aggregate.create: spill_pkts must be positive";
  if pkt_bytes < 29 then
    invalid_arg "Aggregate.create: pkt_bytes must cover the 28-byte header";
  let engine = Network.engine net in
  let topo = Network.topology net in
  let la = Engine.lookahead engine in
  if Engine.shards engine > 1 && Int64.equal la Int64.max_int then
    invalid_arg
      "Aggregate.create: sharded engine with unbounded lookahead (no \
       cross-shard link) cannot order the step grid";
  (* dt >= lookahead puts consecutive grid steps in different
     conservative rounds — the happens-before edge the triple-buffered
     load arrays rely on. *)
  let dt = if Int64.compare dt la < 0 then la else dt in
  let edges = Topology.edges topo in
  let ndirs = 2 * List.length edges in
  let dirs = Hashtbl.create (2 * ndirs) in
  List.iteri
    (fun i (e : Topology.edge) ->
      let cap_step =
        Int64.to_int
          (Int64.div
             (Int64.mul (Int64.of_int (e.bandwidth_bps / 8)) dt)
             1_000_000_000L)
      in
      let de idx =
        { cap_step; e_lat = e.latency; queue = e.queue_bytes;
          bw = e.bandwidth_bps; idx }
      in
      Hashtbl.replace dirs (e.a, e.b) (de (2 * i));
      Hashtbl.replace dirs (e.b, e.a) (de ((2 * i) + 1)))
    edges;
  { net;
    engine;
    topo;
    dt;
    half_dt = Int64.max 1L (Int64.div dt 2L);
    steps;
    spill_pkts;
    pkt_bytes;
    payload = String.make (pkt_bytes - 28) 'f';
    dirs;
    loads = Array.init 3 (fun _ -> Array.init ndirs (fun _ -> Atomic.make 0));
    box_goodput = Atomic.make 0;
    cohorts_rev = [];
    cohorts = [||];
    next_id = 0;
    launched = false
  }

let add_cohort ?(app = "agg") ?(protocol = Packet.Udp) ?(dscp = 0)
    ?(dst_port = 0) t ~src ~dst ~clients ~rate_bps () =
  if t.launched then invalid_arg "Aggregate.add_cohort: already launched";
  if clients <= 0 then invalid_arg "Aggregate.add_cohort: clients must be > 0";
  if rate_bps < 8 then invalid_arg "Aggregate.add_cohort: rate_bps must be >= 8";
  let path =
    match Network.route_path t.net ~from:src dst with
    | None -> invalid_arg "Aggregate.add_cohort: destination unroutable"
    | Some nodes -> Array.of_list nodes
  in
  let n = Array.length path in
  let edges =
    Array.init (n - 1) (fun i ->
        match Hashtbl.find_opt t.dirs (path.(i), path.(i + 1)) with
        | Some de -> de
        | None ->
          invalid_arg
            "Aggregate.add_cohort: path uses a link added after \
             Aggregate.create")
  in
  let path_lat =
    Array.fold_left (fun acc de -> Int64.add acc de.e_lat) 0L edges
  in
  let per_client =
    Int64.to_int
      (Int64.div (Int64.mul (Int64.of_int (rate_bps / 8)) t.dt) 1_000_000_000L)
  in
  let per_step = clients * per_client in
  if per_step <= 0 then
    invalid_arg "Aggregate.add_cohort: rate too small to emit one byte per dt";
  let shards = Engine.shards t.engine in
  let dom i = (Topology.node t.topo path.(i)).Topology.domain in
  let final = Topology.node t.topo path.(n - 1) in
  (* Walk the path's runs of same-domain nodes; every run that enters a
     policed domain — or ends the path at a neutralizer box — becomes a
     spill point. *)
  let spills = ref [] in
  let i = ref 0 in
  while !i < n do
    let d = dom !i in
    let j = ref !i in
    while !j < n - 1 && dom (!j + 1) = d do incr j done;
    let terminal = !j = n - 1 in
    if
      Network.policed t.net d
      || (terminal && final.Topology.kind = Topology.Neutralizer_box)
    then begin
      let entry_node = path.(!i) in
      let station_node = if terminal then path.(n - 1) else entry_node in
      let cell =
        match List.find_opt (fun sp -> sp.station_node = station_node) !spills with
        | Some sp -> sp.cell
        | None -> { a_count = 0; a_bytes = 0; a_lat_ns = 0L }
      in
      spills :=
        { entry = !i;
          egress = !j;
          terminal;
          target = (Topology.node t.topo station_node).Topology.addr;
          station_node;
          entry_node;
          entry_shard = Topology.shard_of t.topo ~shards entry_node;
          cell
        }
        :: !spills
    end;
    i := !j + 1
  done;
  let id = t.next_id in
  t.next_id <- id + 1;
  let c =
    { id;
      app;
      protocol;
      dscp;
      dst_port;
      clients;
      rate_bps;
      src;
      dst;
      path;
      edges;
      spills = Array.of_list (List.rev !spills);
      shard = Topology.shard_of t.topo ~shards src;
      per_step;
      path_lat_ns = path_lat;
      offered_bytes = 0;
      delivered_bytes = Atomic.make 0;
      spilled_bytes = Atomic.make 0;
      spill_sent = Atomic.make 0;
      spill_back = Atomic.make 0;
      lat_prod = Atomic.make 0;
      max_lat_us = Atomic.make 0
    }
  in
  t.cohorts_rev <- c :: t.cohorts_rev;
  id

(* Unique event timestamps per cohort: +id+1 ns keeps simultaneous
   spills from different cohorts totally ordered by time, so queue and
   middleware state sees one order at every shard count. *)
let jitter c = Int64.of_int (c.id + 1)

let record_delivery (c : cohort) ~through ~lat_ns =
  ignore (Atomic.fetch_and_add c.delivered_bytes through);
  let kb = through / 1024 in
  let us = Int64.to_int (Int64.div lat_ns 1000L) in
  ignore (Atomic.fetch_and_add c.lat_prod (kb * us));
  atomic_max c.max_lat_us us

(* Advance [through] bytes of cohort [c] along the path from [idx] at
   grid step [step]: record offered load on each edge in this step's
   buffer, attenuate by the previous step's total load, stop at the next
   spill point or deliver at the destination. [seg_lat] is latency since
   this fluid segment started (the spill post delay); [lat_ns] is the
   end-to-end accumulator for reporting. *)
let rec walk t c ~step ~s ~idx ~through ~seg_lat ~lat_ns =
  if through > 0 then begin
    if s < Array.length c.spills && c.spills.(s).entry = idx then
      spill t c ~s ~through ~seg_lat ~lat_ns
    else if idx = Array.length c.path - 1 then record_delivery c ~through ~lat_ns
    else begin
      let de = c.edges.(idx) in
      ignore (Atomic.fetch_and_add t.loads.(step mod 3).(de.idx) through);
      let prev = Atomic.get t.loads.((step + 2) mod 3).(de.idx) in
      let through, qdelay =
        if de.cap_step > 0 && prev > de.cap_step then
          ( through * de.cap_step / prev,
            Int64.div
              (Int64.mul (Int64.of_int (de.queue * 8)) 1_000_000_000L)
              (Int64.of_int de.bw) )
        else (through, 0L)
      in
      let hop = Int64.add de.e_lat qdelay in
      walk t c ~step ~s ~idx:(idx + 1) ~through
        ~seg_lat:(Int64.add seg_lat hop) ~lat_ns:(Int64.add lat_ns hop)
    end
  end

and spill t c ~s ~through ~seg_lat ~lat_ns =
  let sp = c.spills.(s) in
  (* Rides the accumulated segment latency: when the entry node is on
     another shard the segment crossed shards, so seg_lat >= the
     engine's (auto-tuned) lookahead and the post clears the horizon. *)
  let at =
    Int64.add (Engine.now t.engine) (Int64.add seg_lat (jitter c))
  in
  ignore
    (Engine.post t.engine ~shard:sp.entry_shard ~at (fun () ->
         inject t c ~s ~through ~lat_ns))

and inject t c ~s ~through ~lat_ns =
  let sp = c.spills.(s) in
  let cell = sp.cell in
  cell.a_count <- 0;
  cell.a_bytes <- 0;
  cell.a_lat_ns <- 0L;
  let now = Engine.now t.engine in
  let src_addr = (Topology.node t.topo c.src).Topology.addr in
  for i = 0 to t.spill_pkts - 1 do
    Network.inject t.net sp.entry_node
      (Packet.make ~protocol:c.protocol ~dscp:c.dscp ~dst_port:c.dst_port
         ~flow_id:c.id ~seq:i ~sent_at:now ~app:c.app ~src:src_addr
         ~dst:sp.target t.payload)
  done;
  ignore (Atomic.fetch_and_add c.spill_sent t.spill_pkts);
  ignore (Atomic.fetch_and_add c.spilled_bytes through);
  (* Harvest at +dt/2: past every probe's intra-domain flight time,
     strictly before the next step's injection re-uses the cell. *)
  ignore
    (Engine.schedule t.engine ~delay:t.half_dt (fun () ->
         harvest t c ~s ~through ~lat_ns))

and harvest t c ~s ~through ~lat_ns =
  let sp = c.spills.(s) in
  let cell = sp.cell in
  let back = cell.a_count in
  ignore (Atomic.fetch_and_add c.spill_back back);
  let pass_ppm =
    if back >= t.spill_pkts then 1_000_000
    else back * 1_000_000 / t.spill_pkts
  in
  let passed = through * pass_ppm / 1_000_000 in
  let probe_lat =
    if back > 0 then Int64.div cell.a_lat_ns (Int64.of_int back) else 0L
  in
  if passed > 0 then
    if sp.terminal then begin
      ignore (Atomic.fetch_and_add t.box_goodput passed);
      record_delivery c ~through:passed ~lat_ns:(Int64.add lat_ns probe_lat)
    end
    else begin
      (* Re-aggregate on egress: resume as fluid at the next grid step,
         so the resumed bytes read a fully-settled load buffer. *)
      let now = Engine.now t.engine in
      let k = Int64.to_int (Int64.div now t.dt) + 1 in
      let at = Int64.mul (Int64.of_int k) t.dt in
      let wait = Int64.sub at now in
      ignore
        (Engine.schedule t.engine ~delay:wait (fun () ->
             walk t c ~step:k ~s:(s + 1) ~idx:sp.egress ~through:passed
               ~seg_lat:0L
               ~lat_ns:(Int64.add (Int64.add lat_ns probe_lat) wait)))
    end

(* A station's arrivals land in the cell of the cohort named by the
   packet's flow id, when that cohort spills at this node; anything else
   delivered here is ignored. *)
let station_handler t _net nid (p : Packet.t) =
  let id = p.Packet.meta.flow_id in
  if id >= 0 && id < Array.length t.cohorts then
    match
      Array.find_opt (fun sp -> sp.station_node = nid) t.cohorts.(id).spills
    with
    | None -> ()
    | Some { cell; _ } ->
      cell.a_count <- cell.a_count + 1;
      cell.a_bytes <- cell.a_bytes + Packet.size p;
      cell.a_lat_ns <-
        Int64.add cell.a_lat_ns
          (Int64.sub (Engine.now t.engine) p.Packet.meta.sent_at)

let launch t =
  if t.launched then invalid_arg "Aggregate.launch: already launched";
  t.launched <- true;
  let cohorts = Array.of_list (List.rev t.cohorts_rev) in
  t.cohorts <- cohorts;
  let stations = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      Array.iter
        (fun sp ->
          if not (Hashtbl.mem stations sp.station_node) then begin
            Hashtbl.replace stations sp.station_node ();
            Network.set_handler t.net sp.station_node (station_handler t)
          end)
        c.spills)
    cohorts;
  (* The ticker (shard 0) zeroes the buffer step k+1 will write. It
     outlives cohort emission by enough steps to cover every in-flight
     spill resume. *)
  let slack =
    Array.fold_left
      (fun acc c ->
        let lat_steps =
          Int64.to_int (Int64.div (Int64.mul 2L c.path_lat_ns) t.dt)
        in
        max acc (lat_steps + (3 * Array.length c.spills) + 6))
      6 cohorts
  in
  let ticks = t.steps + slack in
  let rec tick k () =
    Array.iter (fun a -> Atomic.set a 0) t.loads.((k + 1) mod 3);
    if k + 1 < ticks then
      ignore (Engine.schedule t.engine ~delay:t.dt (tick (k + 1)))
  in
  ignore (Engine.post t.engine ~shard:0 ~at:0L (tick 0));
  Array.iter
    (fun (c : cohort) ->
      let rec step k () =
        c.offered_bytes <- c.offered_bytes + c.per_step;
        walk t c ~step:k ~s:0 ~idx:0 ~through:c.per_step ~seg_lat:0L
          ~lat_ns:0L;
        if k + 1 < t.steps then
          ignore (Engine.schedule t.engine ~delay:t.dt (step (k + 1)))
      in
      ignore (Engine.post t.engine ~shard:c.shard ~at:0L (step 0)))
    cohorts

let clients t =
  if t.launched then
    Array.fold_left (fun acc (c : cohort) -> acc + c.clients) 0 t.cohorts
  else List.fold_left (fun acc (c : cohort) -> acc + c.clients) 0 t.cohorts_rev

let duration_s t = Int64.to_float t.dt *. 1e-9 *. float_of_int t.steps

let stats t =
  let z = (0, 0, 0, 0, 0, 0) in
  let off, del, spl, ps, pb, cl =
    Array.fold_left
      (fun (off, del, spl, ps, pb, cl) (c : cohort) ->
        ( off + c.offered_bytes,
          del + Atomic.get c.delivered_bytes,
          spl + Atomic.get c.spilled_bytes,
          ps + Atomic.get c.spill_sent,
          pb + Atomic.get c.spill_back,
          cl + c.clients ))
      z t.cohorts
  in
  { cohorts = Array.length t.cohorts;
    clients = cl;
    steps = t.steps;
    duration_s = duration_s t;
    offered_bytes = off;
    delivered_bytes = del;
    spilled_bytes = spl;
    spill_pkts_sent = ps;
    spill_pkts_back = pb;
    box_goodput_bytes = Atomic.get t.box_goodput
  }

let report_of t (c : cohort) =
  let delivered = Atomic.get c.delivered_bytes in
  let kb = delivered / 1024 in
  let mean_us = if kb > 0 then Atomic.get c.lat_prod / kb else 0 in
  Flow.synthetic ~flow_id:c.id ~app:c.app
    ~sent:(c.offered_bytes / t.pkt_bytes)
    ~received:(delivered / t.pkt_bytes)
    ~sent_bytes:c.offered_bytes ~received_bytes:delivered
    ~mean_latency_ms:(float_of_int mean_us /. 1000.)
    ~max_latency_ms:(float_of_int (Atomic.get c.max_lat_us) /. 1000.)
    ~jitter_ms:0. ~duration_s:(duration_s t)

let reports t = Array.to_list (Array.map (report_of t) t.cohorts)

(* Canonical digest of every cohort's final counters, folded in cohort
   order: the cross-shard-determinism witness. Read it only after
   Engine.run has returned. *)
let digest t =
  let h = ref 0x1b873593 in
  let fold v = h := Int64.to_int (mix64 (Int64.of_int (!h lxor v))) land max_int in
  Array.iter
    (fun (c : cohort) ->
      fold c.id;
      fold c.offered_bytes;
      fold (Atomic.get c.delivered_bytes);
      fold (Atomic.get c.spilled_bytes);
      fold (Atomic.get c.spill_sent);
      fold (Atomic.get c.spill_back);
      fold (Atomic.get c.lat_prod);
      fold (Atomic.get c.max_lat_us))
    t.cohorts;
  fold (Atomic.get t.box_goodput);
  !h
