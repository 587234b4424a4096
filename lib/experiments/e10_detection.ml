type row = {
  vantage : string;
  app_loss : float;
  control_loss : float;
  discriminated : bool;
  reason : string;
}

type result = { rows : row list }

type policy_kind = Clean | Throttle_voip | Throttle_everything

let install world kind =
  let open Discrimination.Dsl in
  let policy =
    match kind with
    | Clean -> None
    | Throttle_voip ->
      Some
        (Rule (App Discrimination.Classifier.Voip, throttle ~rate_bps:24_000))
    | Throttle_everything -> Some (Rule (True, throttle ~rate_bps:60_000))
  in
  Option.iter
    (fun p ->
      Net.Network.add_middleware world.Scenario.World.net
        world.Scenario.World.att
        (middleware (compile ~engine:world.Scenario.World.engine p)))
    policy

let probe_from ~vantage ~policy ~use_ben ~duration_s =
  let world = Scenario.World.create () in
  install world policy;
  (* A neutral measurement server in the PlanetLab domain. *)
  let mnode =
    Net.Topology.add_node world.Scenario.World.topo
      ~domain:world.Scenario.World.planetlab ~kind:Net.Topology.Host
      ~name:"mserver"
  in
  let pl_router =
    List.find
      (fun (n : Net.Topology.node) -> n.node_name = "pl-r1")
      (Net.Topology.nodes world.Scenario.World.topo)
  in
  Net.Topology.add_link world.Scenario.World.topo mnode.nid pl_router.nid
    ~bandwidth_bps:1_000_000_000 ~latency:1_000_000L ();
  Net.Network.recompute_routes world.Scenario.World.net;
  let mserver = Net.Host.attach world.Scenario.World.net mnode in
  let client =
    if use_ben then world.Scenario.World.ben_host
    else world.Scenario.World.ann_host
  in
  let result = ref None in
  Detection.Probe.run world.Scenario.World.net ~client ~server:mserver
    ~duration_s Detection.Probe.voip_profile (fun v -> result := Some v);
  Scenario.World.run world;
  match !result with
  | None -> failwith "E10: probe did not complete"
  | Some v ->
    { vantage;
      app_loss = v.app.loss;
      control_loss = v.control.loss;
      discriminated = v.discriminated;
      reason = v.reason
    }

let run ?(duration_s = 5.0) () =
  { rows =
      [ probe_from ~vantage:"AT&T, targeted VoIP throttle"
          ~policy:Throttle_voip ~use_ben:false ~duration_s;
        probe_from ~vantage:"Verizon, clean" ~policy:Clean ~use_ben:true
          ~duration_s;
        probe_from ~vantage:"AT&T, degrades everything"
          ~policy:Throttle_everything ~use_ben:false ~duration_s
      ]
  }

let print r =
  Table.print
    ~title:
      "E10 (extension): Glasnost-style differential probe (voip vs control)"
    ~header:[ "vantage"; "app loss"; "control loss"; "verdict"; "evidence" ]
    (List.map
       (fun row ->
         [ row.vantage;
           Table.pct row.app_loss;
           Table.pct row.control_loss;
           (if row.discriminated then "DISCRIMINATING" else "no differential");
           row.reason
         ])
       r.rows)
;
  Table.print_obs ~title:"E10 obs: engine + delivery activity"
    ~prefixes:[ "net.engine."; "net.network.delivered" ]
    ()
