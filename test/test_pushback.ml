(* Tests for the pushback controller (§3.6's DoS remedy). *)

let cfg =
  { Pushback.Controller.window = 100_000_000L (* 100 ms *);
    threshold_pps = 100.0;
    limit_pps = 10.0;
    release_after = 1_000_000_000L
  }

let obs ?(src = "10.6.0.5") ?(key_setup = false) () =
  let shim =
    if key_setup then
      Some (Core.Shim.encode (Core.Shim.Key_setup_request { pubkey = "k"; deadline = 0L }))
    else None
  in
  Net.Observation.of_packet ~now:0L
    (Net.Packet.make
       ~protocol:(if key_setup then Net.Packet.Shim else Net.Packet.Udp)
       ?shim
       ~src:(Net.Ipaddr.of_string src)
       ~dst:(Net.Ipaddr.of_string "10.2.255.1")
       "x")

(* Feed [n] packets over [span_ns] of simulated time. *)
let feed engine mw o n span_ns =
  let forwards = ref 0 and drops = ref 0 in
  let interval = Int64.div span_ns (Int64.of_int n) in
  for i = 0 to n - 1 do
    ignore (i, interval);
    ignore
      (Net.Engine.schedule engine
         ~delay:(Int64.mul (Int64.of_int i) interval)
         (fun () ->
           match mw o with
           | Net.Network.Forward -> incr forwards
           | Net.Network.Drop -> incr drops
           | Net.Network.Delay _ | Net.Network.Remark _ -> ()))
  done;
  Net.Engine.run engine;
  (!forwards, !drops)

let test_below_threshold_untouched () =
  let e = Net.Engine.create () in
  let c = Pushback.Controller.create e cfg in
  let mw = Pushback.Controller.middleware c in
  (* 50 pps for 2 seconds: below the 100 pps threshold. *)
  let fwd, drop = feed e mw (obs ~key_setup:true ()) 100 2_000_000_000L in
  Alcotest.(check int) "all forwarded" 100 fwd;
  Alcotest.(check int) "none dropped" 0 drop;
  Alcotest.(check int) "nothing armed" 0 (List.length (Pushback.Controller.armed c))

let test_flood_armed_and_limited () =
  let e = Net.Engine.create () in
  let c = Pushback.Controller.create e cfg in
  let mw = Pushback.Controller.middleware c in
  (* 5000 pps for 2 seconds: way above threshold. *)
  let fwd, drop = feed e mw (obs ~key_setup:true ()) 10_000 2_000_000_000L in
  Alcotest.(check bool) "armed" true (List.length (Pushback.Controller.armed c) = 1);
  Alcotest.(check bool) "mostly dropped" true (drop > 9_000);
  (* limit is ~10 pps over ~2 s, plus the pre-arming window *)
  Alcotest.(check bool) "trickle admitted" true (fwd < 1_500);
  Alcotest.(check int) "counters consistent" (fwd + drop)
    (Pushback.Controller.admitted c + Pushback.Controller.limited c)

let test_aggregates_are_independent () =
  let e = Net.Engine.create () in
  let c = Pushback.Controller.create e cfg in
  let mw = Pushback.Controller.middleware c in
  (* Flood from one /24 while another /24 whispers. *)
  let flood = obs ~src:"10.6.0.5" ~key_setup:true () in
  let quiet = obs ~src:"10.7.0.5" ~key_setup:true () in
  let forwards_quiet = ref 0 in
  for i = 0 to 9_999 do
    ignore
      (Net.Engine.schedule e
         ~delay:(Int64.mul (Int64.of_int i) 200_000L)
         (fun () -> ignore (mw flood)))
  done;
  for i = 0 to 9 do
    ignore
      (Net.Engine.schedule e
         ~delay:(Int64.add 1_000L (Int64.mul (Int64.of_int i) 200_000_000L))
         (fun () ->
           match mw quiet with
           | Net.Network.Forward -> incr forwards_quiet
           | _ -> ()))
  done;
  Net.Engine.run e;
  Alcotest.(check int) "quiet aggregate untouched" 10 !forwards_quiet

let test_key_setup_class_separate () =
  let e = Net.Engine.create () in
  let c = Pushback.Controller.create e cfg in
  let mw = Pushback.Controller.middleware c in
  (* Flood of key setups from a /24 must not limit data packets from the
     same /24 (distinct aggregate class). *)
  for i = 0 to 9_999 do
    ignore
      (Net.Engine.schedule e
         ~delay:(Int64.mul (Int64.of_int i) 200_000L)
         (fun () -> ignore (mw (obs ~key_setup:true ()))))
  done;
  let data_ok = ref 0 in
  for i = 0 to 9 do
    ignore
      (Net.Engine.schedule e
         ~delay:(Int64.add 500L (Int64.mul (Int64.of_int i) 200_000_000L))
         (fun () ->
           match mw (obs ~key_setup:false ()) with
           | Net.Network.Forward -> incr data_ok
           | _ -> ()))
  done;
  Net.Engine.run e;
  Alcotest.(check int) "data class unaffected" 10 !data_ok

let test_release_after_quiet () =
  let e = Net.Engine.create () in
  let c = Pushback.Controller.create e cfg in
  let mw = Pushback.Controller.middleware c in
  ignore (feed e mw (obs ~key_setup:true ()) 10_000 2_000_000_000L);
  Alcotest.(check bool) "armed after flood" true
    (List.length (Pushback.Controller.armed c) = 1);
  (* trickle below threshold for well past release_after *)
  ignore (feed e mw (obs ~key_setup:true ()) 20 10_000_000_000L);
  Alcotest.(check int) "released" 0 (List.length (Pushback.Controller.armed c))

let test_propagate_shares_state () =
  (* An armed limit enforced upstream through [propagate]. *)
  let topo = Net.Topology.create () in
  let up = Net.Topology.add_domain topo ~name:"up" ~prefix:"10.6.0.0/16" in
  let down = Net.Topology.add_domain topo ~name:"down" ~prefix:"10.2.0.0/16" in
  let src = Net.Topology.add_node topo ~domain:up ~kind:Host ~name:"src" in
  let upr = Net.Topology.add_node topo ~domain:up ~kind:Router ~name:"upr" in
  let dst = Net.Topology.add_node topo ~domain:down ~kind:Host ~name:"dst" in
  Net.Topology.add_link topo src.nid upr.nid ~bandwidth_bps:1_000_000_000 ~latency:1_000L ();
  Net.Topology.add_link topo upr.nid dst.nid ~bandwidth_bps:1_000_000_000 ~latency:1_000L ();
  let e = Net.Engine.create ~obs:(Obs.Registry.create ()) () in
  let net = Net.Network.create e topo in
  let c = Pushback.Controller.create e cfg in
  Net.Network.add_middleware net down (Pushback.Controller.middleware c);
  Pushback.Controller.propagate c net up;
  let delivered = ref 0 in
  Net.Network.set_handler net dst.nid (fun _ _ _ -> incr delivered);
  let shim = Core.Shim.encode (Core.Shim.Key_setup_request { pubkey = "k"; deadline = 0L }) in
  for i = 0 to 9_999 do
    ignore
      (Net.Engine.schedule e
         ~delay:(Int64.mul (Int64.of_int i) 200_000L)
         (fun () ->
           Net.Network.send net ~from:src.nid
             (Net.Packet.make ~protocol:Net.Packet.Shim ~shim ~src:src.addr
                ~dst:dst.addr "")))
  done;
  Net.Network.run net;
  (* Once armed, the upstream middleware at upr drops before the peering
     hop; only the pre-arming packets and the trickle get through. *)
  Alcotest.(check bool) "upstream enforcement" true (!delivered < 2_000);
  Alcotest.(check bool) "drops happened in the upstream domain" true
    (Obs.Counter.value
       (Obs.Registry.counter (Net.Engine.obs e)
          ~labels:[ ("reason", "policy") ]
          "net.network.dropped")
     > 8_000)

let () =
  Alcotest.run "pushback"
    [ ( "controller",
        [ Alcotest.test_case "below threshold" `Quick
            test_below_threshold_untouched;
          Alcotest.test_case "flood armed+limited" `Quick
            test_flood_armed_and_limited;
          Alcotest.test_case "aggregates independent" `Quick
            test_aggregates_are_independent;
          Alcotest.test_case "key-setup class separate" `Quick
            test_key_setup_class_separate;
          Alcotest.test_case "release after quiet" `Quick
            test_release_after_quiet;
          Alcotest.test_case "propagate upstream" `Quick
            test_propagate_shares_state
        ] )
    ]
