type row = {
  policy : string;
  vonage_mos : float;
  google_mos : float;
  selectivity : float;
}

type result = { rows : row list }

type policy_kind =
  | Target_vonage_plain  (** the reference: plain traffic, surgical strike *)
  | Target_vonage_neutralized
  | Throttle_anycast  (** §3.6 vector 1: the neutralizer's address *)
  | Throttle_encrypted  (** §3.6 vector 2 *)
  | Drop_key_setups  (** §3.6 vector 3 *)

let policy_name = function
  | Target_vonage_plain -> "target Vonage (plain traffic)"
  | Target_vonage_neutralized -> "target Vonage (neutralized)"
  | Throttle_anycast -> "3.6-1: throttle the anycast address"
  | Throttle_encrypted -> "3.6-2: throttle all encrypted traffic"
  | Drop_key_setups -> "3.6-3: drop key-setup packets"

let neutralized = function Target_vonage_plain -> false | _ -> true

let install world kind =
  let open Discrimination.Dsl in
  let throttle = throttle ~rate_bps:24_000 in
  let vonage = (Scenario.World.site world "vonage").Scenario.World.node in
  let policy =
    match kind with
    | Target_vonage_plain | Target_vonage_neutralized ->
      (* the surgical strike of §1: single out the competitor's address
         (both of Ann's calls are VoIP, so only the address separates the
         target from the bystander) *)
      Rule (Addr vonage.Net.Topology.addr, throttle)
    | Throttle_anycast -> Rule (Addr world.Scenario.World.anycast, throttle)
    | Throttle_encrypted -> Rule (Looks_encrypted, throttle)
    | Drop_key_setups -> Rule (Key_setup, Drop)
  in
  Net.Network.add_middleware world.Scenario.World.net world.Scenario.World.att
    (middleware (compile ~engine:world.Scenario.World.engine policy))

let run_policy ~kind ~duration_s =
  let world = Scenario.World.create () in
  install world kind;
  let engine = world.Scenario.World.engine in
  let flows = Net.Flow.create () in
  let watch name flow_id =
    let site = Scenario.World.site world name in
    Net.Host.on_deliver site.Scenario.World.host (fun p ->
        if p.Net.Packet.meta.flow_id = flow_id then
          Net.Flow.on_receive flows ~now:(Net.Engine.now engine) p);
    Net.Host.listen site.Scenario.World.host ~port:5060 (fun _ _ -> ());
    site
  in
  let vonage = watch "vonage" 1 in
  let google = watch "google" 2 in
  let client =
    Scenario.World.make_client world world.Scenario.World.ann_host
      ~seed:("e11-" ^ policy_name kind)
      ()
  in
  let frame = String.make 160 'v' in
  let n = int_of_float (duration_s /. 0.02) in
  let send_flow flow_id name (site : Scenario.World.site) i =
    Net.Flow.on_send flows
      (Net.Packet.make ~src:world.Scenario.World.ann.addr
         ~dst:site.Scenario.World.node.addr ~flow_id ~app:"voip" frame);
    if neutralized kind then
      Core.Client.send_to_name client ~name ~app:"voip" ~flow_id ~seq:i frame
    else
      Net.Host.send_udp world.Scenario.World.ann_host
        ~dst:site.Scenario.World.node.addr ~dst_port:5060 ~flow_id ~seq:i
        ~app:"voip" frame
  in
  for i = 0 to n - 1 do
    ignore
      (Net.Engine.schedule_s engine
         ~delay_s:(0.02 *. float_of_int i)
         (fun () ->
           send_flow 1 "vonage.example" vonage i;
           send_flow 2 "google.example" google i))
  done;
  Scenario.World.run world;
  let mos flow_id =
    match Net.Flow.report flows ~flow_id with
    | Some r -> Net.Flow.mos r
    | None -> 1.0
  in
  let vonage_mos = mos 1 and google_mos = mos 2 in
  { policy = policy_name kind;
    vonage_mos;
    google_mos;
    selectivity = google_mos -. vonage_mos
  }

let run ?(duration_s = 8.0) () =
  { rows =
      List.map
        (fun kind -> run_policy ~kind ~duration_s)
        [ Target_vonage_plain;
          Target_vonage_neutralized;
          Throttle_anycast;
          Throttle_encrypted;
          Drop_key_setups
        ]
  }

let print r =
  Table.print
    ~title:
      "E11 (extension): 3.6's residual vectors lose their selectivity"
    ~header:
      [ "AT&T policy"; "Vonage MOS (target)"; "Google MOS (bystander)";
        "selectivity"
      ]
    (List.map
       (fun row ->
         [ row.policy;
           Table.f2 row.vonage_mos;
           Table.f2 row.google_mos;
           Table.f2 row.selectivity
         ])
       r.rows)
