(* Tests for the deterministic fault-injection subsystem (lib/fault) and
   the failure-recovery hardening it drives: splittable PRNG streams,
   wire/topology fault injection on the Figure-1 world, declarative plan
   parsing and scheduling, rotation crash/restart catch-up, client crash
   amnesia, the E12 chaos experiment's reproducibility contract, and a
   seeded loss+corruption+flapping soak.

   The whole fault timeline is a pure function of one root seed, printed
   at startup. Replay a failure with FAULT_SEED=<printed> dune exec
   test/test_fault.exe; the @chaos alias runs the long soak under
   CHAOS_SOAK=1 with a pinned seed. *)

open Net
module W = Scenario.World

let root_seed = Fault.Prng.env_seed "FAULT_SEED" ~default:1

let () =
  Printf.printf "fault root seed: %d (override with FAULT_SEED)\n%!" root_seed

(* ---- prng ---- *)

let draws p n = List.init n (fun _ -> Fault.Prng.bits p)

let test_prng_determinism () =
  let a = Fault.Prng.create ~seed:42 and b = Fault.Prng.create ~seed:42 in
  Alcotest.(check (list int64)) "same seed, same stream" (draws a 100)
    (draws b 100);
  let c = Fault.Prng.create ~seed:43 in
  Alcotest.(check bool) "different seed, different stream" false
    (draws (Fault.Prng.create ~seed:42) 100 = draws c 100)

let test_prng_split_order_independent () =
  let p1 = Fault.Prng.create ~seed:7 in
  let a1 = Fault.Prng.split p1 ~label:"a" in
  let b1 = Fault.Prng.split p1 ~label:"b" in
  let p2 = Fault.Prng.create ~seed:7 in
  (* opposite split order, and the parent drew bits in between *)
  let b2 = Fault.Prng.split p2 ~label:"b" in
  ignore (Fault.Prng.bits p2);
  let a2 = Fault.Prng.split p2 ~label:"a" in
  Alcotest.(check (list int64)) "stream a independent of order" (draws a1 50)
    (draws a2 50);
  Alcotest.(check (list int64)) "stream b independent of order" (draws b1 50)
    (draws b2 50);
  Alcotest.(check bool) "labels give distinct streams" false
    (draws (Fault.Prng.split p1 ~label:"a") 50
    = draws (Fault.Prng.split p1 ~label:"b") 50)

let test_prng_distributions () =
  let p = Fault.Prng.create ~seed:root_seed in
  for _ = 1 to 1000 do
    if Fault.Prng.bool p ~p:0.0 then Alcotest.fail "p=0 fired";
    if not (Fault.Prng.bool p ~p:1.0) then Alcotest.fail "p=1 missed";
    let i = Fault.Prng.int p 7 in
    if i < 0 || i >= 7 then Alcotest.failf "int out of bound: %d" i;
    let f = Fault.Prng.float p in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done;
  let n = 5000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Fault.Prng.exponential p ~mean:3.0 in
    if x < 0.0 then Alcotest.fail "negative holding time";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "exponential mean ~ 3" true
    (mean > 2.5 && mean < 3.5)

(* ---- wire faults ---- *)

(* Two identical one-link worlds with the same seed must lose exactly
   the same packets; a different seed must lose different ones. *)
let loss_pattern ~seed =
  let topo = Topology.create () in
  let d = Topology.add_domain topo ~name:"d" ~prefix:"10.7.0.0/16" in
  let a = Topology.add_node topo ~domain:d ~kind:Topology.Host ~name:"a" in
  let b = Topology.add_node topo ~domain:d ~kind:Topology.Host ~name:"b" in
  Topology.add_link topo a.nid b.nid ~bandwidth_bps:1_000_000_000
    ~latency:1_000_000L ();
  let eng = Engine.create () in
  let net = Network.create eng topo in
  let inj = Fault.Inject.create ~seed net in
  let link = Option.get (Network.link_between net a.nid b.nid) in
  Fault.Inject.perturb_link inj ~label:"ab"
    ~profile:{ Fault.Inject.calm with loss = 0.5 }
    link;
  let got = ref [] in
  Network.set_handler net b.nid (fun _ _ p ->
      got := p.Packet.payload :: !got);
  for i = 0 to 199 do
    ignore
      (Engine.schedule eng
         ~delay:(Int64.of_int (i * 1_000_000))
         (fun () ->
           Network.send net ~from:a.nid
             (Packet.make ~src:a.addr ~dst:b.addr (string_of_int i))))
  done;
  Network.run net;
  (List.rev !got, Fault.Inject.injected inj)

let test_wire_fault_determinism () =
  let p1, n1 = loss_pattern ~seed:11 in
  let p2, n2 = loss_pattern ~seed:11 in
  Alcotest.(check (list string)) "same seed, same survivors" p1 p2;
  Alcotest.(check int) "same seed, same fault count" n1 n2;
  Alcotest.(check bool) "half-ish lost" true
    (List.length p1 > 50 && List.length p1 < 150);
  let p3, _ = loss_pattern ~seed:12 in
  Alcotest.(check bool) "different seed, different survivors" false (p1 = p3)

(* ---- topology faults on the Figure-1 world ---- *)

let test_node_crash_restart () =
  let w = W.create () in
  let inj = Fault.Inject.create ~seed:5 w.W.net in
  let box = List.hd w.W.boxes in
  let node = Core.Neutralizer.node box in
  let crashed = ref 0 and restarted = ref 0 in
  Fault.Inject.on_crash inj node.nid (fun () ->
      incr crashed;
      Core.Neutralizer.crash box);
  Fault.Inject.on_restart inj node.nid (fun () ->
      incr restarted;
      Core.Neutralizer.restart box);
  let members () = Topology.anycast_members w.W.topo w.W.anycast in
  Alcotest.(check bool) "announced before" true
    (List.mem node.nid (members ()));
  Fault.Inject.node_crash inj node.nid;
  Alcotest.(check bool) "anycast withdrawn" false
    (List.mem node.nid (members ()));
  Alcotest.(check bool) "marked down" false (Network.node_up w.W.net node.nid);
  Alcotest.(check bool) "agent dead" false (Core.Neutralizer.alive box);
  Alcotest.(check bool) "crashed flag" true
    (Fault.Inject.node_crashed inj node.nid);
  let n = Fault.Inject.injected inj in
  Fault.Inject.node_crash inj node.nid;
  Alcotest.(check int) "double crash is a no-op" n (Fault.Inject.injected inj);
  Alcotest.(check int) "one crash callback" 1 !crashed;
  Fault.Inject.node_restart inj node.nid;
  Alcotest.(check bool) "re-announced" true (List.mem node.nid (members ()));
  Alcotest.(check bool) "up again" true (Network.node_up w.W.net node.nid);
  Alcotest.(check bool) "agent alive" true (Core.Neutralizer.alive box);
  Alcotest.(check int) "one restart callback" 1 !restarted

let test_link_and_partition_faults () =
  let w = W.create () in
  let inj = Fault.Inject.create ~seed:3 w.W.net in
  let nbox1 = Core.Neutralizer.node (List.hd w.W.boxes) in
  let att_r = w.W.att_router in
  let boundary () = Option.get (Network.link_between w.W.net att_r.nid nbox1.nid) in
  let reverse () = Option.get (Network.link_between w.W.net nbox1.nid att_r.nid) in
  let access () = Option.get (Network.link_between w.W.net w.W.ann.nid att_r.nid) in
  Alcotest.(check bool) "up initially" true (Link.is_up (boundary ()));
  Fault.Inject.link_down inj att_r.nid nbox1.nid;
  Alcotest.(check bool) "forward down" false (Link.is_up (boundary ()));
  Alcotest.(check bool) "reverse down too" false (Link.is_up (reverse ()));
  Fault.Inject.link_up inj att_r.nid nbox1.nid;
  Alcotest.(check bool) "forward restored" true (Link.is_up (boundary ()));
  Alcotest.(check bool) "reverse restored" true (Link.is_up (reverse ()));
  Fault.Inject.partition inj ~domains:[ w.W.cogent ];
  Alcotest.(check bool) "boundary link cut" false (Link.is_up (boundary ()));
  Alcotest.(check bool) "intra-domain link untouched" true
    (Link.is_up (access ()));
  Fault.Inject.heal inj;
  Alcotest.(check bool) "healed" true (Link.is_up (boundary ()));
  Alcotest.(check bool) "faults all counted" true
    (Fault.Inject.injected inj >= 4)

(* ---- declarative plans ---- *)

let plan_text =
  "# fault plan\n\
   at 1.5 node_crash neutralizer-1\n\
   at 4 node_restart neutralizer-1\n\
   at 6.0 link_down r1 r2   # trailing comment\n\
   at 8 link_up r1 r2\n\
   at 10 partition cogent att\n\
   at 12 heal\n\
   flap neutralizer-2 300 5\n"

let test_plan_roundtrip () =
  match Fault.Plan.parse plan_text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok p ->
    Alcotest.(check int) "entries" 6 (List.length p.Fault.Plan.entries);
    Alcotest.(check int) "flaps" 1 (List.length p.Fault.Plan.flaps);
    (match Fault.Plan.parse (Fault.Plan.to_string p) with
     | Error e -> Alcotest.failf "reparse failed: %s" e
     | Ok p2 -> Alcotest.(check bool) "round-trips" true (p = p2))

let check_error ~line text =
  match Fault.Plan.parse text with
  | Ok _ -> Alcotest.failf "accepted bad plan %S" text
  | Error e ->
    let prefix = Printf.sprintf "line %d:" line in
    if not
         (String.length e >= String.length prefix
         && String.sub e 0 (String.length prefix) = prefix)
    then Alcotest.failf "expected %S error, got %S" prefix e

let test_plan_parse_errors () =
  check_error ~line:1 "at x node_crash n";
  check_error ~line:1 "at 1 frobnicate n";
  check_error ~line:1 "flap n 0 5";
  check_error ~line:1 "at -1 heal";
  check_error ~line:3 "at 1 node_crash n\n# fine\nbogus directive"

let two_routers () =
  let topo = Topology.create () in
  let d = Topology.add_domain topo ~name:"d" ~prefix:"10.8.0.0/16" in
  let x = Topology.add_node topo ~domain:d ~kind:Topology.Router ~name:"x" in
  let y = Topology.add_node topo ~domain:d ~kind:Topology.Router ~name:"y" in
  Topology.add_link topo x.nid y.nid ~bandwidth_bps:1_000_000_000
    ~latency:1_000_000L ();
  let eng = Engine.create () in
  let net = Network.create eng topo in
  (net, eng, x, y)

let test_plan_schedule_fires () =
  let net, eng, x, y = two_routers () in
  let inj = Fault.Inject.create ~seed:1 net in
  let crashed = ref false in
  Fault.Inject.on_crash inj y.nid (fun () -> crashed := true);
  let text =
    "at 0.001 link_down x y\n\
     at 0.002 link_up x y\n\
     at 0.003 node_crash y\n\
     at 0.004 node_restart y\n"
  in
  let plan =
    match Fault.Plan.parse text with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  (match Fault.Plan.schedule plan inj with
   | Error e -> Alcotest.failf "schedule: %s" e
   | Ok _stop -> ());
  Engine.run eng;
  Alcotest.(check bool) "crash fired" true !crashed;
  Alcotest.(check bool) "node back up" true (Network.node_up net y.nid);
  Alcotest.(check bool) "link back up" true
    (Link.is_up (Option.get (Network.link_between net x.nid y.nid)));
  Alcotest.(check int) "all four counted" 4 (Fault.Inject.injected inj)

let test_plan_rejects_unknown_names () =
  let net, eng, _, _ = two_routers () in
  let inj = Fault.Inject.create ~seed:1 net in
  let plan =
    match Fault.Plan.parse "at 1 node_crash nosuch" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  (match Fault.Plan.schedule plan inj with
   | Ok _ -> Alcotest.fail "scheduled a plan with an unknown node"
   | Error _ -> ());
  (* whole-plan rejection: nothing was scheduled *)
  Engine.run eng;
  Alcotest.(check int) "nothing injected" 0 (Fault.Inject.injected inj)

let test_plan_stopper_and_horizon () =
  (* A stopped plan injects nothing. *)
  let net, eng, _, y = two_routers () in
  let inj = Fault.Inject.create ~seed:1 net in
  let plan =
    match Fault.Plan.parse "at 0.001 node_crash y\nflap y 0.01 0.01" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %s" e
  in
  (match Fault.Plan.schedule ~horizon_s:1.0 plan inj with
   | Error e -> Alcotest.failf "schedule: %s" e
   | Ok stop -> stop ());
  Engine.run eng;
  Alcotest.(check int) "stopped plan injects nothing" 0
    (Fault.Inject.injected inj);
  (* A flap bounded by a horizon terminates and leaves the node up. *)
  let net2, eng2, _, y2 = two_routers () in
  let inj2 = Fault.Inject.create ~seed:root_seed net2 in
  let flap =
    { Fault.Plan.empty with
      Fault.Plan.flaps =
        [ { Fault.Plan.flap_node = "y"; mean_up_s = 0.01; mean_down_s = 0.01 } ]
    }
  in
  (match Fault.Plan.schedule ~horizon_s:1.0 flap inj2 with
   | Error e -> Alcotest.failf "schedule: %s" e
   | Ok _stop -> ());
  Engine.run eng2;
  Alcotest.(check bool) "flapped at least once" true
    (Fault.Inject.injected inj2 > 0);
  Alcotest.(check bool) "restarted at the horizon" true
    (Network.node_up net2 y2.nid);
  ignore y

(* ---- E12 reproducibility contract ---- *)

let test_e12_deterministic () =
  let r1 = Experiments.E12_chaos.run ~seed:42 ~duration_s:6.0 () in
  let r2 = Experiments.E12_chaos.run ~seed:42 ~duration_s:6.0 () in
  Alcotest.(check bool) "identical result tables" true
    (Experiments.E12_chaos.to_rows r1 = Experiments.E12_chaos.to_rows r2);
  Alcotest.(check bool) "the run actually crashed the box" true
    (r1.Experiments.E12_chaos.crashes > 0);
  Alcotest.(check bool) "traffic flowed" true
    (r1.Experiments.E12_chaos.delivered > 0);
  Alcotest.(check bool) "failures bounded by injected faults" true
    (r1.Experiments.E12_chaos.key_setups_failed
    <= r1.Experiments.E12_chaos.faults_injected)

let test_e12_seed_sensitive () =
  let r1 = Experiments.E12_chaos.run ~seed:42 ~duration_s:6.0 () in
  let r3 = Experiments.E12_chaos.run ~seed:43 ~duration_s:6.0 () in
  Alcotest.(check bool) "different seed, different table" false
    (Experiments.E12_chaos.to_rows r1 = Experiments.E12_chaos.to_rows r3)

(* ---- soak: loss + corruption + flapping ---- *)

let test_soak () =
  let soak = Sys.getenv_opt "CHAOS_SOAK" <> None in
  (* Short mode keeps `dune runtest` snappy; CHAOS_SOAK=1 (the @chaos
     alias) runs 10 simulated minutes with sparser traffic and roughly
     one flap per 10 minutes, per the robustness acceptance bar. *)
  let duration_s = if soak then 600.0 else 30.0 in
  let period_s = if soak then 0.25 else 0.05 in
  let w = W.create () in
  let engine = w.W.engine in
  let inj = Fault.Inject.create ~seed:root_seed w.W.net in
  Fault.Inject.perturb_all_links inj ~profile:{ Fault.Inject.calm with loss = 0.01; corrupt = 0.001 };
  List.iter
    (fun box ->
      let nid = (Core.Neutralizer.node box).nid in
      Fault.Inject.on_crash inj nid (fun () -> Core.Neutralizer.crash box);
      Fault.Inject.on_restart inj nid (fun () -> Core.Neutralizer.restart box))
    w.W.boxes;
  let plan =
    { Fault.Plan.entries = [];
      flaps =
        [ { Fault.Plan.flap_node = "neutralizer-1";
            mean_up_s = (if soak then 600.0 else 10.0);
            mean_down_s = (if soak then 10.0 else 2.0)
          }
        ]
    }
  in
  (match Fault.Plan.schedule ~horizon_s:duration_s plan inj with
   | Ok _stop -> ()
   | Error e -> Alcotest.failf "plan rejected: %s" e);
  let ann = W.make_client w w.W.ann_host ~seed:"soak-ann" () in
  let ben = W.make_client w w.W.ben_host ~seed:"soak-ben" () in
  let delivered = ref 0 and sent = ref 0 in
  Core.Client.set_receiver ann (fun ~peer:_ _ -> incr delivered);
  Core.Client.set_receiver ben (fun ~peer:_ _ -> incr delivered);
  let n = int_of_float (duration_s /. period_s) in
  for i = 0 to n - 1 do
    ignore
      (Engine.schedule_s engine
         ~delay_s:(period_s *. float_of_int i)
         (fun () ->
           incr sent;
           Core.Client.send_to_name ann ~name:"google.example" ~app:"web"
             ~flow_id:1 ~seq:i
             (Printf.sprintf "a-%d" i);
           incr sent;
           Core.Client.send_to_name ben ~name:"vonage.example" ~app:"voip"
             ~flow_id:2 ~seq:i
             (Printf.sprintf "b-%d" i)))
  done;
  W.run w;
  let injected = Fault.Inject.injected inj in
  Alcotest.(check bool) "faults actually injected" true (injected > 0);
  List.iter
    (fun box ->
      Alcotest.(check bool) "box alive at the end" true
        (Core.Neutralizer.alive box))
    w.W.boxes;
  List.iter
    (fun node ->
      Alcotest.(check bool) "every node up at the end" true
        (Network.node_up w.W.net node.Topology.nid))
    (Topology.nodes w.W.topo);
  let failed =
    (Core.Client.counters ann).key_setups_failed
    + (Core.Client.counters ben).key_setups_failed
  in
  Alcotest.(check bool) "key_setups_failed bounded by injected faults" true
    (failed <= injected);
  Alcotest.(check bool) "most traffic survives the chaos" true
    (float_of_int !delivered >= 0.5 *. float_of_int !sent);
  (* Every flow re-homed: with the plan over and all boxes restarted, a
     probe on each flow still gets through (the wire still loses 1%). *)
  let before = !delivered in
  for i = 0 to 4 do
    ignore
      (Engine.schedule_s engine
         ~delay_s:(0.05 *. float_of_int i)
         (fun () ->
           Core.Client.send_to_name ann ~name:"google.example" ~app:"web"
             ~flow_id:1 ~seq:(n + i) "probe";
           Core.Client.send_to_name ben ~name:"vonage.example" ~app:"voip"
             ~flow_id:2 ~seq:(n + i) "probe"))
  done;
  W.run w;
  Alcotest.(check bool) "flows re-homed and alive" true (!delivered > before)

let () =
  Alcotest.run "fault"
    [ ( "prng",
        [ Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "split order-independent" `Quick
            test_prng_split_order_independent;
          Alcotest.test_case "distributions" `Quick test_prng_distributions
        ] );
      ( "inject",
        [ Alcotest.test_case "wire fault determinism" `Quick
            test_wire_fault_determinism;
          Alcotest.test_case "node crash/restart" `Quick
            test_node_crash_restart;
          Alcotest.test_case "link + partition faults" `Quick
            test_link_and_partition_faults
        ] );
      ( "plan",
        [ Alcotest.test_case "round-trip" `Quick test_plan_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_plan_parse_errors;
          Alcotest.test_case "schedule fires" `Quick test_plan_schedule_fires;
          Alcotest.test_case "rejects unknown names" `Quick
            test_plan_rejects_unknown_names;
          Alcotest.test_case "stopper and horizon" `Quick
            test_plan_stopper_and_horizon
        ] );
      ( "chaos",
        [ Alcotest.test_case "e12 deterministic" `Quick test_e12_deterministic;
          Alcotest.test_case "e12 seed-sensitive" `Quick test_e12_seed_sensitive;
          Alcotest.test_case "soak" `Quick test_soak
        ] )
    ]
