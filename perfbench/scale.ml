(* as-scale: the fluid-aggregate tier at AS scale, in the shape of
   experiment E14. A 400-domain Topogen power-law graph carries 1000
   Aggregate cohorts of 1000 clients (every fourth cohort TCP, every
   ninth cross traffic to another domain, the rest to the neutralizer
   anycast); every 5th domain is policed by a compiled Dsl TCP-drop
   table, where TCP cohorts spill to real packets and are dropped. The
   engine has 4 shards and runs its rounds on a Par pool of at most
   nproc domains.

   The graph is E14's own (seed 14) on every run, so the workload seed
   does not change how much work a step is; the seed rotates which
   domain each cohort starts in. One engine call advances one 50 ms
   grid step. One op is one client-step, and its latency is the wall
   time of its step. *)

module Dsl = Discrimination.Dsl

let domains = 400
let cohorts = 1000
let clients_per_cohort = 1000
let rate_bps = 64_000
let dt = 50_000_000L
let topo_seed = 14
let policed = 5
let shards = 4

(* Emission horizon: more grid steps than any run reaches. *)
let max_steps = 1_000_000

(* The digest is taken after this many steps, which every run completes. *)
let digest_steps = 20

type t = {
  gen : Net.Topogen.t;
  engine : Net.Engine.t;
  net : Net.Network.t;
  agg : Net.Aggregate.t;
  tables : (Net.Topology.domain_id * Net.Network.middleware) list;
  clients : int;
  step_ns : int64;
  mutable step : int;
  mutable digest : string option;
}

let tcp_drop = Dsl.Rule (Dsl.Protocol 6, Dsl.Drop)
let generate () = Net.Topogen.generate ~domains ~seed:topo_seed ()

let build ~seed =
  let gen = generate () in
  let topo = gen.Net.Topogen.topo in
  let engine = Net.Engine.create ~shards ~topo () in
  let net = Net.Network.create engine topo in
  let tables =
    List.filter_map
      (fun d ->
        if d mod policed = policed - 1 then
          Some (d, Dsl.middleware (Dsl.compile ~engine ~domain:d tcp_drop))
        else None)
      (List.init domains Fun.id)
  in
  List.iter (fun (d, table) -> Net.Network.set_middlewares net d [ table ]) tables;
  let agg = Net.Aggregate.create ~dt ~steps:max_steps net in
  let shift = Random.State.int (Random.State.make [| seed; 0x5ca1e |]) domains in
  for i = 0 to cohorts - 1 do
    let src = (i + shift) mod domains in
    let protocol = if i mod 4 = 3 then Net.Packet.Tcp else Net.Packet.Udp in
    let dst =
      if i mod 9 = 8 then
        let target = (src + 1 + (i mod (domains - 1))) mod domains in
        (Net.Topology.node topo gen.Net.Topogen.routers.(target))
          .Net.Topology.addr
      else gen.Net.Topogen.anycast
    in
    ignore
      (Net.Aggregate.add_cohort agg ~protocol
         ~app:(if protocol = Net.Packet.Tcp then "bulk" else "voip")
         ~src:gen.Net.Topogen.routers.(src) ~dst ~clients:clients_per_cohort
         ~rate_bps ()
        : int)
  done;
  Net.Aggregate.launch agg;
  { gen;
    engine;
    net;
    agg;
    tables;
    clients = Net.Aggregate.clients agg;
    step_ns = Net.Aggregate.dt agg;
    step = 0;
    digest = None
  }

let set_tracing s on =
  List.iter
    (fun (d, table) ->
      Net.Network.set_middlewares s.net d
        [ (if on then Spans.wrap_middleware table else table) ])
    s.tables

let step s ~pool ~traced (ph : Phase.t) =
  let until = Int64.pred (Int64.mul (Int64.of_int (s.step + 1)) s.step_ns) in
  let events = Net.Engine.processed s.engine in
  let rounds = Net.Engine.rounds s.engine in
  let run () = Net.Engine.run ~pool ~until s.engine in
  let t0 = Clock.now () in
  if traced then
    Spans.with_span ~is_root:true Spans.Engine_run ~flow:s.step run
  else run ();
  let wall = Clock.now () - t0 in
  ph.wall_ns <- ph.wall_ns + wall;
  Stats.add ph.lat_ms (Clock.to_ms wall);
  Phase.add_rate ph ~ops:s.clients ~wall_ns:wall;
  Stats.add ph.pending (float_of_int (Net.Engine.pending s.engine));
  ph.ops <- ph.ops + s.clients;
  ph.steps <- ph.steps + 1;
  ph.events <- ph.events + (Net.Engine.processed s.engine - events);
  ph.rounds <- ph.rounds + (Net.Engine.rounds s.engine - rounds);
  s.step <- s.step + 1;
  if s.step = digest_steps then
    s.digest <- Some (Printf.sprintf "%016x" (Net.Aggregate.digest s.agg))

let phase s ~pool ~traced ~deadline =
  let ph = Phase.create () in
  set_tracing s traced;
  let more () =
    s.step < max_steps
    && (ph.steps = 0
       || s.step < digest_steps
       || (Clock.now () < deadline && not (traced && Spans.full ())))
  in
  while more () do
    step s ~pool ~traced ph
  done;
  set_tracing s false;
  (* A cohort fails when it has no report or has not emitted. *)
  let reports = Net.Aggregate.reports s.agg in
  ph.attempted <- cohorts;
  ph.failed <-
    cohorts - List.length reports
    + List.length
        (List.filter (fun (r : Net.Flow.report) -> r.Net.Flow.sent = 0) reports);
  let st = Net.Aggregate.stats s.agg in
  if
    st.Net.Aggregate.delivered_bytes > st.Net.Aggregate.offered_bytes
    || st.Net.Aggregate.spill_pkts_back > st.Net.Aggregate.spill_pkts_sent
  then
    Phase.fail
      "as-scale: %d of %d offered bytes delivered, %d of %d spill packets back"
      st.Net.Aggregate.delivered_bytes st.Net.Aggregate.offered_bytes
      st.Net.Aggregate.spill_pkts_back st.Net.Aggregate.spill_pkts_sent;
  ph

(* Representative spill packets that came back over those sent: the
   useful share of the packet tier's work. *)
let spill_pass_ratio s =
  let st = Net.Aggregate.stats s.agg in
  float_of_int st.Net.Aggregate.spill_pkts_back
  /. float_of_int (max 1 st.Net.Aggregate.spill_pkts_sent)

let digest s = s.digest
