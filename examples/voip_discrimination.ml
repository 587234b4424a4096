(* The paper's opening story (§1), played out end to end.

   Ann subscribes to AT&T and makes VoIP calls through Vonage, a
   competitor of AT&T's own phone service. AT&T installs a policy that
   classifies and throttles traffic to Vonage. We measure the call
   quality Ann experiences (a MOS score: 4.4 is a clean call, 1.0 is
   unusable) in three configurations, then show that AT&T can still sell
   QoS tiers by DSCP even when it cannot see whom Ann is calling.

   Run with: dune exec examples/voip_discrimination.exe *)

let call ~label ~world ~neutralized ~dscp ~seconds =
  let vonage = Scenario.World.site world "vonage" in
  let flows = Net.Flow.create () in
  Net.Host.on_deliver vonage.Scenario.World.host (fun p ->
      if p.Net.Packet.meta.flow_id = 1 then
        Net.Flow.on_receive flows
          ~now:(Net.Engine.now world.Scenario.World.engine)
          p);
  Net.Host.listen vonage.Scenario.World.host ~port:5060 (fun _ _ -> ());
  let client =
    Scenario.World.make_client world world.Scenario.World.ann_host
      ~seed:("call-" ^ label) ()
  in
  let frame = String.make 160 'v' in
  let packets = seconds * 50 in
  for i = 0 to packets - 1 do
    ignore
      (Net.Engine.schedule_s world.Scenario.World.engine
         ~delay_s:(0.02 *. float_of_int i)
         (fun () ->
           Net.Flow.on_send flows
             (Net.Packet.make ~src:world.Scenario.World.ann.addr
                ~dst:vonage.Scenario.World.node.addr ~flow_id:1 ~app:"voip"
                frame);
           if neutralized then
             Core.Client.send_to_name client ~name:"vonage.example" ~dscp
               ~app:"voip" ~flow_id:1 ~seq:i frame
           else
             Net.Host.send_udp world.Scenario.World.ann_host
               ~dst:vonage.Scenario.World.node.addr ~dst_port:5060 ~dscp
               ~flow_id:1 ~seq:i ~app:"voip" frame))
  done;
  Scenario.World.run world;
  let r = Option.get (Net.Flow.report flows ~flow_id:1) in
  Printf.printf "%-46s delivered %3d/%3d  loss %5.1f%%  latency %7.1fms  MOS %.2f\n"
    label r.received r.sent (100.0 *. r.loss) r.mean_latency_ms
    (Net.Flow.mos r)

module Dsl = Discrimination.Dsl

(* AT&T's policy lives in its own domain: every packet crossing it is
   judged by the compiled rule table. *)
let install world policy =
  Dsl.Control.install world.Scenario.World.net
    ~domains:[ world.Scenario.World.att ] policy

let throttle_vonage world =
  let vonage = Scenario.World.site world "vonage" in
  install world
    (Dsl.Rule
       ( Dsl.Or
           ( Dsl.App Discrimination.Classifier.Voip,
             Dsl.Addr vonage.Scenario.World.node.addr ),
         Dsl.throttle ~rate_bps:24_000 ))

let tier_by_dscp world =
  ignore
    (install world
       (Dsl.Rule
          ( Dsl.And
              (Dsl.Looks_encrypted, Dsl.Not (Dsl.Dscp Core.Protocol.dscp_ef)),
            Dsl.throttle ~rate_bps:48_000 ))
      : Dsl.Control.t)

let report_hits ctl =
  Printf.printf "    policy rule %S matched %d packets\n" "kill-vonage"
    (Dsl.Control.hits ctl)

let () =
  let seconds = 8 in
  print_endline "Ann calls Vonage for 8 seconds (G.711-style, 50 pps):\n";

  let w1 = Scenario.World.create () in
  call ~label:"no discrimination, plain UDP" ~world:w1 ~neutralized:false
    ~dscp:0 ~seconds;

  let w2 = Scenario.World.create () in
  let policy = throttle_vonage w2 in
  call ~label:"AT&T throttles Vonage, plain UDP" ~world:w2 ~neutralized:false
    ~dscp:0 ~seconds;
  report_hits policy;

  let w3 = Scenario.World.create () in
  let policy = throttle_vonage w3 in
  call ~label:"AT&T throttles Vonage, NEUTRALIZED" ~world:w3 ~neutralized:true
    ~dscp:0 ~seconds;
  report_hits policy;

  print_endline "\nTiered service survives neutralization (paper 3.4):";
  let w4 = Scenario.World.create () in
  tier_by_dscp w4;
  call ~label:"congested BE class, neutralized, EF (paid)" ~world:w4
    ~neutralized:true ~dscp:Core.Protocol.dscp_ef ~seconds;
  let w5 = Scenario.World.create () in
  tier_by_dscp w5;
  call ~label:"congested BE class, neutralized, best effort" ~world:w5
    ~neutralized:true ~dscp:0 ~seconds;

  print_endline
    "\nThe targeted policy matched hundreds of plain packets but zero\n\
     neutralized ones: the ISP can still tier by DSCP, but can no longer\n\
     pick out the competitor."
