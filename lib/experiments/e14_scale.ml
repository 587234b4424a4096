(* E14 — fluid-aggregate hybrid tier at AS scale (capstone for the
   million-client milestone).

   Three gates, in order:

   1. Equivalence: on a small generated topology with a protocol
      discrimination policy at the neutralizer domains, the fluid tier's
      delivered bytes must match a pure packet-level reference (real
      hosts, one event per packet) within 10%. The scenario is
      deliberately light on the links so the comparison isolates the
      policy path: permitted traffic must arrive in full, discriminated
      traffic not at all, in both tiers.

   2. Shard invariance: the hybrid run's cohort digest must be
      bit-identical at every shard count, with and without a domain
      pool. Shards=1 is the sequential reference.

   3. Scale: a generated AS graph with hundreds of domains and >= 10^6
      simulated clients, sharded engine, wall-clocked. Reported as
      events/s, client-steps/s and neutralizer goodput.

   Policy placement is deterministic: every [policed]-th domain runs a
   compiled Dsl table that drops TCP (the classic BitTorrent-throttling
   stand-in), so TCP cohorts crossing it are discriminated while UDP
   cohorts pass. *)

let client_rate_bps = 64_000
let scale_shards = 4
let tolerance = 0.10

type hybrid_out = {
  h_digest : int;
  h_stats : Net.Aggregate.stats;
  h_events : int;
  h_seconds : float;
  h_lookahead : int64;
}

type scale_point = {
  shards : int;
  pooled : bool;
  events_per_s : float;
  point_digest : int;
}

type result = {
  (* gate 1: fluid vs packet *)
  eq_domains : int;
  eq_clients : int;
  eq_offered : int;
  eq_packet_delivered : int;
  eq_fluid_delivered : int;
  eq_ratio : float;  (* fluid / packet delivered bytes *)
  eq_ok : bool;
  (* gate 2: digest invariance across shard counts *)
  inv_points : scale_point list;
  inv_ok : bool;
  (* gate 3: the big run *)
  domains : int;
  cohorts : int;
  clients : int;
  steps : int;
  dt_ns : int64;
  lookahead_ns : int64;
  seed : int;
  events : int;
  seconds : float;
  events_per_s : float;
  client_steps_per_s : float;
  offered_bytes : int;
  delivered_bytes : int;
  goodput_bps : float;  (* bytes delivered at neutralizer boxes / sim span *)
  digest : int;
  ok : bool;
}

let tcp_drop = Discrimination.Dsl.Rule (Protocol 6, Drop)

(* Deterministic policy placement: domain d is policed iff d mod policed
   = policed - 1 (never domain 0, which anchors the transit core). Each
   policed domain gets its own compiled table. *)
let install_policies net ~domains ~policed =
  let engine = Net.Network.engine net in
  if policed > 0 then
    for d = 0 to domains - 1 do
      if d mod policed = policed - 1 then
        Net.Network.add_middleware net d
          Discrimination.Dsl.(middleware (compile ~engine ~domain:d tcp_drop))
    done

(* One hybrid run: generated topology, sharded engine with auto-tuned
   lookahead, cohorts alternating UDP (permitted) and TCP (discriminated
   at policed domains), all aimed at the neutralizer anycast except
   every [cross]-th cohort, which is fluid cross-traffic to another
   domain's router. *)
let hybrid_run ~domains ~cohorts ~clients_per_cohort ~rate_bps ~steps ~dt
    ~seed ~policed ~shards ~pool () =
  let gen = Net.Topogen.generate ~domains ~seed () in
  let engine =
    Net.Engine.create
      ~obs:(Obs.Registry.create ())
      ~shards ~topo:gen.Net.Topogen.topo ()
  in
  let net = Net.Network.create engine gen.Net.Topogen.topo in
  install_policies net ~domains ~policed;
  let agg = Net.Aggregate.create ~dt ~steps net in
  for i = 0 to cohorts - 1 do
    let src_dom = i mod domains in
    let protocol = if i mod 4 = 3 then Net.Packet.Tcp else Net.Packet.Udp in
    let dst =
      if i mod 9 = 8 then
        (* cross traffic between stub domains, never to itself *)
        let target = (src_dom + 1 + (i mod (domains - 1))) mod domains in
        (Net.Topology.node gen.Net.Topogen.topo gen.Net.Topogen.routers.(target))
          .Net.Topology.addr
      else gen.Net.Topogen.anycast
    in
    ignore
      (Net.Aggregate.add_cohort agg ~protocol
         ~app:(if protocol = Net.Packet.Tcp then "bulk" else "voip")
         ~src:gen.Net.Topogen.routers.(src_dom)
         ~dst ~clients:clients_per_cohort ~rate_bps ())
  done;
  Net.Aggregate.launch agg;
  let t0 = Unix.gettimeofday () in
  Net.Engine.run ?pool engine;
  let h_seconds = Unix.gettimeofday () -. t0 in
  { h_digest = Net.Aggregate.digest agg;
    h_stats = Net.Aggregate.stats agg;
    h_events = Net.Engine.processed engine;
    h_seconds;
    h_lookahead = Net.Engine.lookahead engine
  }

(* The packet-level reference for the equivalence gate: every client is
   a real host sending [pkts] CBR packets to the anycast; deliveries are
   counted at the boxes. Same topology, same policies, one event per
   packet per hop. *)
let packet_reference ~domains ~clients_per_domain ~pps ~pkts ~pkt_bytes
    ~seed ~policed () =
  let gen = Net.Topogen.generate ~domains ~seed () in
  let engine = Net.Engine.create ~obs:(Obs.Registry.create ()) () in
  let net = Net.Network.create engine gen.Net.Topogen.topo in
  install_policies net ~domains ~policed;
  let hosts = ref [] in
  for d = 0 to domains - 1 do
    for c = 0 to clients_per_domain - 1 do
      let protocol =
        if ((d * clients_per_domain) + c) mod 2 = 1 then Net.Packet.Tcp
        else Net.Packet.Udp
      in
      let h =
        Net.Topogen.client gen ~domain:d ~name:(Printf.sprintf "c%d-%d" d c) ()
      in
      hosts := (h, protocol) :: !hosts
    done
  done;
  Net.Network.recompute_routes net;
  let delivered = ref 0 in
  List.iter
    (fun (_, box) ->
      Net.Network.set_handler net box (fun _ _ p ->
          delivered := !delivered + Net.Packet.size p))
    gen.Net.Topogen.boxes;
  let payload = String.make (pkt_bytes - 28) 'f' in
  let period = Int64.div 1_000_000_000L (Int64.of_int pps) in
  let offered = ref 0 in
  List.iter
    (fun ((h : Net.Topology.node), protocol) ->
      for k = 0 to pkts - 1 do
        offered := !offered + pkt_bytes;
        ignore
          (Net.Engine.schedule engine
             ~delay:(Int64.mul (Int64.of_int k) period)
             (fun () ->
               Net.Network.send net ~from:h.Net.Topology.nid
                 (Net.Packet.make ~protocol ~sent_at:(Net.Engine.now engine)
                    ~src:h.Net.Topology.addr ~dst:gen.Net.Topogen.anycast payload)))
      done)
    (List.rev !hosts);
  Net.Engine.run engine;
  (!offered, !delivered)

(* The fluid twin of [packet_reference]: one cohort per (domain,
   protocol) population with the identical offered volume. *)
let fluid_reference ~domains ~clients_per_domain ~pps ~pkts ~pkt_bytes
    ~seed ~policed () =
  let rate_bps = pps * pkt_bytes * 8 in
  let dt = 20_000_000L (* 20 ms *) in
  let steps =
    (* same span as [pkts] at [pps]: pkts/pps seconds *)
    pkts * 50 / pps
  in
  let gen = Net.Topogen.generate ~domains ~seed () in
  let engine = Net.Engine.create ~obs:(Obs.Registry.create ()) () in
  let net = Net.Network.create engine gen.Net.Topogen.topo in
  install_policies net ~domains ~policed;
  let agg = Net.Aggregate.create ~dt ~steps net in
  for d = 0 to domains - 1 do
    (* the packet reference alternates protocols per client; split each
       domain's population the same way *)
    let tcp = clients_per_domain / 2 and udp = (clients_per_domain + 1) / 2 in
    if udp > 0 then
      ignore
        (Net.Aggregate.add_cohort agg ~protocol:Net.Packet.Udp
           ~src:gen.Net.Topogen.routers.(d) ~dst:gen.Net.Topogen.anycast ~clients:udp
           ~rate_bps ());
    if tcp > 0 then
      ignore
        (Net.Aggregate.add_cohort agg ~protocol:Net.Packet.Tcp
           ~src:gen.Net.Topogen.routers.(d) ~dst:gen.Net.Topogen.anycast ~clients:tcp
           ~rate_bps ())
  done;
  Net.Aggregate.launch agg;
  Net.Engine.run engine;
  let s = Net.Aggregate.stats agg in
  (s.Net.Aggregate.offered_bytes, s.Net.Aggregate.delivered_bytes)

let run ?(domains = 400) ?(cohorts = 1000) ?(clients_per_cohort = 1000)
    ?(steps = 100) ?(dt = 50_000_000L) ?(seed = 14) ?(policed = 5)
    ?(eq_domains = 10) ?(eq_clients_per_domain = 4) () =
  (* Gate 1: equivalence on the small world. *)
  let pps = 50 and pkts = 100 and pkt_bytes = 1200 in
  let eq_offered, eq_packet =
    packet_reference ~domains:eq_domains
      ~clients_per_domain:eq_clients_per_domain ~pps ~pkts ~pkt_bytes ~seed
      ~policed ()
  in
  let _, eq_fluid =
    fluid_reference ~domains:eq_domains
      ~clients_per_domain:eq_clients_per_domain ~pps ~pkts ~pkt_bytes ~seed
      ~policed ()
  in
  let eq_ratio =
    if eq_packet = 0 then if eq_fluid = 0 then 1.0 else infinity
    else float_of_int eq_fluid /. float_of_int eq_packet
  in
  let eq_ok = Float.abs (eq_ratio -. 1.0) <= tolerance in
  (* Gate 2: digest invariance, small hybrid run swept over shards. *)
  let inv domains cohorts clients =
    let go shards pool =
      hybrid_run ~domains ~cohorts ~clients_per_cohort:clients
        ~rate_bps:256_000 ~steps:(min steps 30) ~dt ~seed ~policed ~shards
        ~pool ()
    in
    List.concat_map
      (fun shards ->
        let seq = go shards None in
        let par =
          if shards = 1 then []
          else
            [ Par.with_pool ~size:shards (fun pool ->
                  let o = go shards (Some pool) in
                  { shards;
                    pooled = true;
                    events_per_s = float_of_int o.h_events /. o.h_seconds;
                    point_digest = o.h_digest
                  })
            ]
        in
        { shards;
          pooled = false;
          events_per_s = float_of_int seq.h_events /. seq.h_seconds;
          point_digest = seq.h_digest
        }
        :: par)
      [ 1; 2; 4 ]
  in
  let inv_points = inv (min domains 24) (min cohorts 48) 200 in
  let inv_ok =
    match inv_points with
    | [] -> false
    | base :: rest ->
      List.for_all (fun p -> p.point_digest = base.point_digest) rest
  in
  (* Gate 3: the big run. *)
  let big =
    Par.with_pool ~size:(max 1 (min scale_shards (Par.recommended ())))
      (fun pool ->
        hybrid_run ~domains ~cohorts ~clients_per_cohort
          ~rate_bps:client_rate_bps ~steps ~dt ~seed ~policed
          ~shards:scale_shards ~pool:(Some pool) ())
  in
  let s = big.h_stats in
  let clients = s.Net.Aggregate.clients in
  { eq_domains;
    eq_clients = eq_domains * eq_clients_per_domain;
    eq_offered;
    eq_packet_delivered = eq_packet;
    eq_fluid_delivered = eq_fluid;
    eq_ratio;
    eq_ok;
    inv_points;
    inv_ok;
    domains;
    cohorts;
    clients;
    steps;
    dt_ns = dt;
    lookahead_ns = big.h_lookahead;
    seed;
    events = big.h_events;
    seconds = big.h_seconds;
    events_per_s = float_of_int big.h_events /. big.h_seconds;
    client_steps_per_s =
      float_of_int clients *. float_of_int steps /. big.h_seconds;
    offered_bytes = s.Net.Aggregate.offered_bytes;
    delivered_bytes = s.Net.Aggregate.delivered_bytes;
    goodput_bps =
      (if s.Net.Aggregate.duration_s <= 0.0 then 0.0
       else
         float_of_int (8 * s.Net.Aggregate.box_goodput_bytes)
         /. s.Net.Aggregate.duration_s);
    digest = big.h_digest;
    ok = eq_ok && inv_ok && clients >= 0
  }

let print r =
  Table.print
    ~title:
      (Printf.sprintf
         "e14: fluid vs packet equivalence (%d domains x %d clients, TCP \
          dropped at policed domains)"
         r.eq_domains (r.eq_clients / r.eq_domains))
    ~header:[ "tier"; "delivered bytes" ]
    [ [ "offered (both tiers)"; string_of_int r.eq_offered ];
      [ "packet reference"; string_of_int r.eq_packet_delivered ];
      [ "fluid-aggregate"; string_of_int r.eq_fluid_delivered ];
      [ Printf.sprintf "ratio (tolerance %.0f%%)" (100. *. tolerance);
        Printf.sprintf "%.4f %s" r.eq_ratio (if r.eq_ok then "ok" else "FAIL")
      ]
    ];
  Table.print ~title:"e14: hybrid digest invariance across shard counts"
    ~header:[ "shards"; "pool"; "events/s"; "digest" ]
    (List.map
       (fun p ->
         [ string_of_int p.shards;
           (if p.pooled then "yes" else "no");
           Table.kops p.events_per_s;
           Printf.sprintf "%016x" p.point_digest
         ])
       r.inv_points);
  Table.print
    ~title:
      (Printf.sprintf "e14: scale run (%d domains, %d cohorts, seed %d)"
         r.domains r.cohorts r.seed)
    ~header:[ "metric"; "value" ]
    [ [ "simulated clients"; string_of_int r.clients ];
      [ "rate-update steps"; string_of_int r.steps ];
      [ "dt"; Printf.sprintf "%Ld ns" r.dt_ns ];
      [ "auto-tuned lookahead"; Printf.sprintf "%Ld ns" r.lookahead_ns ];
      [ "shards"; string_of_int scale_shards ];
      [ "engine events"; string_of_int r.events ];
      [ "wall clock"; Printf.sprintf "%.2f s" r.seconds ];
      [ "events/s"; Table.kops r.events_per_s ];
      [ "client-steps/s"; Table.kops r.client_steps_per_s ];
      [ "offered"; Printf.sprintf "%d bytes" r.offered_bytes ];
      [ "delivered"; Printf.sprintf "%d bytes" r.delivered_bytes ];
      [ "neutralizer goodput"; Printf.sprintf "%.3e bit/s" r.goodput_bps ];
      [ "digest"; Printf.sprintf "%016x" r.digest ];
      [ "all gates"; (if r.ok then "ok" else "FAIL") ]
    ]

let to_json r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"bench\": \"scale\", \"equivalence\": {\"domains\": %d, \
        \"clients\": %d, \"offered_bytes\": %d, \"packet_delivered\": %d, \
        \"fluid_delivered\": %d, \"ratio\": %.4f, \"tolerance\": %.2f, \
        \"ok\": %b}, \"invariance\": ["
       r.eq_domains r.eq_clients r.eq_offered r.eq_packet_delivered
       r.eq_fluid_delivered r.eq_ratio tolerance r.eq_ok);
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s{\"shards\": %d, \"pooled\": %b, \"events_per_s\": %.1f, \
            \"digest\": \"%016x\"}"
           (if i = 0 then "" else ", ")
           p.shards p.pooled p.events_per_s p.point_digest))
    r.inv_points;
  Buffer.add_string buf
    (Printf.sprintf
       "], \"invariance_ok\": %b, \"scale\": {\"domains\": %d, \"cohorts\": \
        %d, \"clients\": %d, \"steps\": %d, \"dt_ns\": %Ld, \
        \"lookahead_ns\": %Ld, \"shards\": %d, \"seed\": %d, \"events\": %d, \
        \"wall_s\": %.3f, \"events_per_s\": %.1f, \"client_steps_per_s\": \
        %.1f, \"offered_bytes\": %d, \"delivered_bytes\": %d, \
        \"neutralizer_goodput_bps\": %.1f, \"digest\": \"%016x\"}, \"ok\": \
        %b, \"note\": \"equivalence compares fluid-aggregate delivered \
        bytes against a per-packet reference under a TCP-drop policy; \
        invariance requires bit-identical cohort digests at every shard \
        count, pool or no pool\"}"
       r.inv_ok r.domains r.cohorts r.clients r.steps r.dt_ns r.lookahead_ns
       scale_shards r.seed r.events r.seconds r.events_per_s
       r.client_steps_per_s r.offered_bytes r.delivered_bytes r.goodput_bps
       r.digest r.ok);
  Buffer.contents buf
