type defense = No_defense | Pushback | Shedding

type row = {
  condition : string;
  ann_delivered : int;
  ann_sent : int;
  ann_mean_latency_ms : float;
  box_key_setups : int;
  flood_dropped_upstream : int;
  box_shed : int;
}

type result = { rows : row list }

let reply_flow = 2

let attackers = 10

let run_condition ~condition ~defense ~attack_pps ~duration_s =
  (* The paper's box does 24.4k key setups per second; 40 us per setup
     models that class of hardware, so the flood genuinely overloads it. *)
  let costs =
    { Core.Protocol.default_costs with Core.Protocol.key_setup = 40_000L }
  in
  let world = Scenario.World.create ~costs () in
  let topo = world.Scenario.World.topo in
  let net = world.Scenario.World.net in
  let engine = world.Scenario.World.engine in
  (* The botnet lives in its own access ISP peering with AT&T's router,
     giving it /24 aggregates distinct from Ann's. *)
  let botnet =
    Net.Topology.add_domain topo ~name:"botnet" ~prefix:"10.6.0.0/16"
  in
  let bot_router =
    Net.Topology.add_node topo ~domain:botnet ~kind:Net.Topology.Router
      ~name:"bot-r"
  in
  Net.Topology.add_link topo bot_router.nid
    world.Scenario.World.att_router.nid ~bandwidth_bps:1_000_000_000
    ~latency:2_000_000L ~rel:Net.Topology.Peer ();
  let bots =
    List.init attackers (fun i ->
        let n =
          Net.Topology.add_node topo ~domain:botnet ~kind:Net.Topology.Host
            ~name:(Printf.sprintf "bot-%d" i)
        in
        Net.Topology.add_link topo n.nid bot_router.nid
          ~bandwidth_bps:100_000_000 ~latency:1_000_000L ();
        Net.Host.attach net n)
  in
  Net.Network.recompute_routes net;
  (* Pushback protects Cogent and is propagated upstream into AT&T and
     the botnet's own ISP. *)
  let controller =
    Pushback.Controller.create engine
      { Pushback.Controller.window = 200_000_000L;
        threshold_pps = 500.0;
        limit_pps = 50.0;
        release_after = 5_000_000_000L
      }
  in
  (match defense with
   | No_defense -> ()
   | Pushback ->
     Net.Network.add_middleware net world.Scenario.World.cogent
       (Pushback.Controller.middleware controller);
     Pushback.Controller.propagate controller net world.Scenario.World.att;
     Pushback.Controller.propagate controller net botnet
   | Shedding ->
     (* Local admission control at the boxes themselves — no upstream
        cooperation needed. The setup backlog bound keeps the RSA queue
        to ~50 requests (2 ms at 40 us each) and each source /24 is
        capped well below a single bot's rate, while established data
        traffic is only shed above a 200 ms backlog it never reaches. *)
     List.iter
       (fun box ->
         Core.Neutralizer.enable_admission box
           (Overload.Admission.create
              ~config:
                { Overload.Admission.max_backlog_setup = 2_000_000L;
                  max_backlog_data = 200_000_000L;
                  per_source_rate = 100.0;
                  per_source_burst = 50.0;
                  prefix_bits = 24
                }
              ()))
       world.Scenario.World.boxes);
  (* Ann's steady neutralized exchange with Google. *)
  let google = Scenario.World.site world "google" in
  Core.Server.set_responder google.Scenario.World.server (fun srv ~peer payload ->
      Core.Server.reply srv ~session:peer ~app:"reply" ~flow_id:reply_flow
        ("re:" ^ payload));
  let client =
    Scenario.World.make_client world world.Scenario.World.ann_host
      ~seed:("e6-" ^ condition) ()
  in
  let flows = Net.Flow.create () in
  Net.Host.on_deliver world.Scenario.World.ann_host (fun p ->
      if p.Net.Packet.meta.flow_id = reply_flow then
        Net.Flow.on_receive flows ~now:(Net.Engine.now engine) p);
  let n_sends = int_of_float (duration_s /. 0.02) in
  for i = 0 to n_sends - 1 do
    ignore
      (Net.Engine.schedule_s engine
         ~delay_s:(float_of_int i *. 0.02)
         (fun () ->
           Core.Client.send_to_name client ~name:"google.example"
             ~app:"voip" ~flow_id:1 ~seq:i (String.make 64 'a')))
  done;
  (* Flood: valid key-setup requests, full RSA work at the box, starting
     after Ann is established. *)
  let pubkey_blob =
    Crypto.Rsa.public_to_string (Scenario.Keyring.onetime 0).Crypto.Rsa.public
  in
  let shim =
    Core.Shim.encode
      (Core.Shim.Key_setup_request { pubkey = pubkey_blob; deadline = 0L })
  in
  let per_bot_interval = float_of_int attackers /. float_of_int attack_pps in
  List.iteri
    (fun bi bot ->
      let n_flood =
        int_of_float ((duration_s -. 0.5) /. per_bot_interval)
      in
      for i = 0 to n_flood - 1 do
        ignore
          (Net.Engine.schedule_s engine
             ~delay_s:(0.5 +. (float_of_int i *. per_bot_interval)
                       +. (0.0001 *. float_of_int bi))
             (fun () ->
               Net.Host.send bot
                 (Net.Packet.make ~protocol:Net.Packet.Shim ~shim
                    ~src:(Net.Host.addr bot)
                    ~dst:world.Scenario.World.anycast
                    ~sent_at:(Net.Engine.now engine) ~app:"flood" "")))
      done)
    bots;
  Scenario.World.run world;
  let report = Net.Flow.report flows ~flow_id:reply_flow in
  let delivered, latency =
    match report with
    | Some r -> (r.received, r.mean_latency_ms)
    | None -> (0, 0.0)
  in
  let box_setups =
    List.fold_left
      (fun acc b -> acc + (Core.Neutralizer.counters b).key_setups)
      0 world.Scenario.World.boxes
  in
  let box_shed =
    List.fold_left
      (fun acc b -> acc + (Core.Neutralizer.counters b).shed)
      0 world.Scenario.World.boxes
  in
  { condition;
    ann_delivered = delivered;
    ann_sent = n_sends;
    ann_mean_latency_ms = latency;
    box_key_setups = box_setups;
    flood_dropped_upstream = Pushback.Controller.limited controller;
    box_shed
  }

let run ?(attack_pps = 50_000) ?(duration_s = 3.0) () =
  { rows =
      [ run_condition ~condition:"flood, no defense" ~defense:No_defense
          ~attack_pps ~duration_s;
        run_condition ~condition:"flood + pushback" ~defense:Pushback
          ~attack_pps ~duration_s;
        run_condition ~condition:"flood + local shedding" ~defense:Shedding
          ~attack_pps ~duration_s
      ]
  }

let print r =
  Table.print
    ~title:
      "E6: key-setup flood at the neutralizer — pushback vs local shedding"
    ~header:
      [ "condition"; "ann replies"; "reply latency"; "box RSA ops";
        "flood limited"; "box sheds"
      ]
    (List.map
       (fun row ->
         [ row.condition;
           Printf.sprintf "%d/%d" row.ann_delivered row.ann_sent;
           Printf.sprintf "%.1fms" row.ann_mean_latency_ms;
           string_of_int row.box_key_setups;
           string_of_int row.flood_dropped_upstream;
           string_of_int row.box_shed
         ])
       r.rows)
;
  Table.print_obs ~title:"E6 obs: neutralizer + drop accounting"
    ~prefixes:[ "core.neutralizer."; "net.network.dropped" ]
    ()
