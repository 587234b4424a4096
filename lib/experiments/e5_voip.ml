type row = {
  condition : string;
  delivered : int;
  sent : int;
  loss : float;
  mean_latency_ms : float;
  mos : float;
  hits : int;
}

type result = { rows : row list }

let voip_flow = 1
let frame = String.make 160 'v' (* 20 ms of G.711 *)

type mode =
  | Plain
  | Neutralized of int (* dscp *)

type policy_kind = No_policy | Target_vonage | Tier_by_dscp

let install_policy world kind =
  let open Discrimination.Dsl in
  let vonage = (Scenario.World.site world "vonage").Scenario.World.node in
  let policy =
    match kind with
    | No_policy -> None
    | Target_vonage ->
      (* 24 kbit/s strangles a 75 kbit/s call. *)
      Some
        (Rule
           ( Or
               ( App Discrimination.Classifier.Voip,
                 Addr vonage.Net.Topology.addr ),
             throttle ~rate_bps:24_000 ))
    | Tier_by_dscp ->
      (* §3.4: the ISP may still tier by DSCP; best-effort encrypted
         traffic shares a congested 48 kbit/s class, EF is untouched. *)
      Some
        (Rule
           ( And (Looks_encrypted, Not (Dscp Core.Protocol.dscp_ef)),
             throttle ~rate_bps:48_000 ))
  in
  Option.map
    (Control.install world.Scenario.World.net
       ~domains:[ world.Scenario.World.att ])
    policy

let run_condition ~condition ~mode ~policy ~duration_s ~pps =
  let world = Scenario.World.create () in
  let control = install_policy world policy in
  let vonage = Scenario.World.site world "vonage" in
  let flows = Net.Flow.create () in
  Net.Host.on_deliver vonage.Scenario.World.host (fun p ->
      if p.Net.Packet.meta.flow_id = voip_flow then
        Net.Flow.on_receive flows
          ~now:(Net.Engine.now world.Scenario.World.engine)
          p);
  Net.Host.listen vonage.Scenario.World.host ~port:5060 (fun _ _ -> ());
  let client =
    Scenario.World.make_client world world.Scenario.World.ann_host
      ~seed:("e5-" ^ condition) ()
  in
  let n = int_of_float (duration_s *. float_of_int pps) in
  let interval = 1.0 /. float_of_int pps in
  let engine = world.Scenario.World.engine in
  for i = 0 to n - 1 do
    ignore
      (Net.Engine.schedule_s engine
         ~delay_s:(float_of_int i *. interval)
         (fun () ->
           Net.Flow.on_send flows
             (Net.Packet.make ~src:world.Scenario.World.ann.addr
                ~dst:vonage.Scenario.World.node.addr ~flow_id:voip_flow
                ~app:"voip" frame);
           match mode with
           | Plain ->
             Net.Host.send_udp world.Scenario.World.ann_host
               ~dst:vonage.Scenario.World.node.addr ~dst_port:5060
               ~flow_id:voip_flow ~seq:i ~app:"voip" frame
           | Neutralized dscp ->
             Core.Client.send_to_name client ~name:"vonage.example" ~dscp
               ~app:"voip" ~flow_id:voip_flow ~seq:i frame))
  done;
  Scenario.World.run world;
  let report =
    Option.get (Net.Flow.report flows ~flow_id:voip_flow)
  in
  { condition;
    delivered = report.received;
    sent = report.sent;
    loss = report.loss;
    mean_latency_ms = report.mean_latency_ms;
    mos = Net.Flow.mos report;
    hits = Option.fold ~none:0 ~some:Discrimination.Dsl.Control.hits control
  }

let run ?(duration_s = 10.0) ?(pps = 50) () =
  let rows =
    [ run_condition ~condition:"baseline (no discrimination, plain)"
        ~mode:Plain ~policy:No_policy ~duration_s ~pps;
      run_condition ~condition:"targeted throttle, plain VoIP" ~mode:Plain
        ~policy:Target_vonage ~duration_s ~pps;
      run_condition ~condition:"targeted throttle, neutralized"
        ~mode:(Neutralized 0) ~policy:Target_vonage ~duration_s ~pps;
      run_condition ~condition:"DSCP tiering, neutralized EF (paid)"
        ~mode:(Neutralized Core.Protocol.dscp_ef) ~policy:Tier_by_dscp
        ~duration_s ~pps;
      run_condition ~condition:"DSCP tiering, neutralized best-effort"
        ~mode:(Neutralized 0) ~policy:Tier_by_dscp ~duration_s ~pps
    ]
  in
  { rows }

let print r =
  Table.print
    ~title:
      "E5: VoIP discrimination (Ann -> Vonage, 50pps G.711-style call)"
    ~header:
      [ "condition"; "delivered"; "loss"; "latency"; "MOS"; "policy hits" ]
    (List.map
       (fun row ->
         [ row.condition;
           Printf.sprintf "%d/%d" row.delivered row.sent;
           Table.pct row.loss;
           Printf.sprintf "%.1fms" row.mean_latency_ms;
           Table.f2 row.mos;
           string_of_int row.hits
         ])
       r.rows)
;
  Table.print_obs ~title:"E5 obs: simulated network activity"
    ~prefixes:[ "net.engine."; "net.network." ]
    ()
