(* Integration tests on the full Figure-1 world: the complete protocol
   walk, the opacity guarantees of §3, reverse flows, QoS, offload,
   master-key rotation and failure handling. *)

let world () = Scenario.World.create ()

let client ?strategy w seed =
  Scenario.World.make_client w w.Scenario.World.ann_host ~seed ?strategy ()

let run = Scenario.World.run

let test_basic_exchange () =
  let w = world () in
  let c = client w "basic" in
  let got = ref [] in
  Core.Client.set_receiver c (fun ~peer msg -> got := (peer, msg) :: !got);
  for i = 1 to 5 do
    Core.Client.send_to_name c ~name:"google.example" ~app:"web"
      (Printf.sprintf "q%d" i)
  done;
  run w;
  Alcotest.(check int) "all replies" 5 (List.length !got);
  let google = Scenario.World.site w "google" in
  Alcotest.(check bool) "peer is google" true
    (List.for_all
       (fun (p, _) -> Net.Ipaddr.equal p google.Scenario.World.node.addr)
       !got);
  let ctrs = Core.Client.counters c in
  Alcotest.(check int) "one dns lookup" 1 ctrs.dns_lookups;
  Alcotest.(check int) "one key setup" 1 ctrs.key_setups_completed;
  Alcotest.(check bool) "refresh applied" true (ctrs.refreshes_applied >= 1);
  Alcotest.(check int) "no errors" 0 ctrs.errors

(* What an echoed request costs in SHA-256 once grant and session exist:
   the session layer's HMAC over nonce ‖ ciphertext, at both ends, in
   both directions, and nothing else. A 64 B request takes 3
   compressions per MAC (two inner, one outer), so 12; a 1200 B request
   takes 21 per MAC, so 84. *)
let test_steady_state_compressions () =
  let w = world () in
  let c = client w "sha-count" in
  let got = ref 0 in
  Core.Client.set_receiver c (fun ~peer:_ _ -> incr got);
  let blocks = Obs.Registry.counter Obs.Registry.default "crypto.sha256.blocks" in
  let echo size =
    let before = Obs.Counter.value blocks and replies = !got in
    Core.Client.send_to_name c ~name:"google.example" (String.make size 'r');
    run w;
    Alcotest.(check int) (Printf.sprintf "%d B echoed" size) (replies + 1) !got;
    Obs.Counter.value blocks - before
  in
  ignore (echo 64);
  Alcotest.(check int) "64 B echo" 12 (echo 64);
  Alcotest.(check int) "1200 B echo" 84 (echo 1200);
  Alcotest.(check int) "64 B echo again" 12 (echo 64)

(* What a new flow pays in RSA. Three private-key decryptions: the
   resolver opens the sealed DNS query (1024), the client opens its grant
   under the one-time key (512) and the site opens the initial payload
   (1024). Three encryptions, one each way of those, and one verify of
   the DNS answer. The resolver signs each RRset once, so only a site's
   first flow pays a sign. *)
let test_new_flow_rsa_budget () =
  let w = world () in
  let ops = [ "decrypts"; "encrypts"; "verifies"; "signs" ] in
  let count op =
    Obs.Counter.value
      (Obs.Registry.counter Obs.Registry.default ("crypto.rsa." ^ op))
  in
  let flow i site =
    let before = List.map count ops in
    let c = client w (Printf.sprintf "rsa-budget-%d" i) in
    let got = ref [] in
    Core.Client.set_receiver c (fun ~peer:_ msg -> got := msg :: !got);
    let req = Printf.sprintf "flow %d" i in
    Core.Client.send_to_name c ~name:(site ^ ".example") req;
    run w;
    Alcotest.(check (list string))
      (Printf.sprintf "flow %d echoed" i)
      [ "re:" ^ req ] !got;
    match List.map2 (fun op b -> count op - b) ops before with
    | [ decrypts; encrypts; verifies; signs ] ->
      Alcotest.(check (list int))
        (Printf.sprintf "flow %d: decrypts, encrypts, verifies" i)
        [ 3; 3; 1 ] [ decrypts; encrypts; verifies ];
      signs
    | _ -> assert false
  in
  let signs =
    List.mapi flow [ "google"; "google"; "google"; "yahoo"; "yahoo" ]
  in
  Alcotest.(check (list int)) "signs per flow" [ 1; 0; 0; 1; 0 ] signs

let test_opacity_inside_access_isp () =
  let w = world () in
  let c = client w "opaque" in
  List.iter
    (fun name ->
      Core.Client.send_to_name c ~name:(name ^ ".example") ~app:"web" "hi")
    Scenario.World.site_names;
  run w;
  (* No site address is ever visible inside AT&T, in headers, shim bytes
     or payload bytes — the §3 design goal. *)
  List.iter
    (fun name ->
      let site = Scenario.World.site w name in
      Alcotest.(check int)
        (name ^ " leaks") 0
        (Scenario.World.observed_address_leaks w.Scenario.World.att_trace
           site.Scenario.World.node.addr))
    Scenario.World.site_names;
  (* Sanity check of the leak metric itself: Ann's own address is of
     course visible inside AT&T. *)
  Alcotest.(check bool) "metric is live" true
    (Scenario.World.observed_address_leaks w.Scenario.World.att_trace
       w.Scenario.World.ann.addr
     > 0)

let test_dns_names_hidden () =
  let w = world () in
  let c = client w "dns-hide" in
  Core.Client.send_to_name c ~name:"vonage.example" ~app:"voip" "call";
  run w;
  let has_sub hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "qname never on the access wire" false
    (Net.Trace.exists w.Scenario.World.att_trace (fun o ->
         has_sub o.Net.Observation.payload "vonage.example"))

let test_one_grant_for_all_destinations () =
  (* "A source can use the same symmetric key to send any packet destined
     to any customer in the neutralizer's domain" (§3.2). *)
  let w = world () in
  let c = client w "reuse" in
  let got = ref 0 in
  Core.Client.set_receiver c (fun ~peer:_ _ -> incr got);
  List.iter
    (fun name ->
      Core.Client.send_to_name c ~name:(name ^ ".example") ~app:"web" "x")
    Scenario.World.site_names;
  run w;
  Alcotest.(check int) "all sites answered" 5 !got;
  Alcotest.(check int) "exactly one key setup"
    1 (Core.Client.counters c).key_setups_completed

let test_two_access_isps () =
  let w = world () in
  let ann = client w "ann" in
  let ben =
    Scenario.World.make_client w w.Scenario.World.ben_host ~seed:"ben" ()
  in
  let hits = ref [] in
  Core.Client.set_receiver ann (fun ~peer:_ m -> hits := ("ann", m) :: !hits);
  Core.Client.set_receiver ben (fun ~peer:_ m -> hits := ("ben", m) :: !hits);
  Core.Client.send_to_name ann ~name:"google.example" "from-ann";
  Core.Client.send_to_name ben ~name:"google.example" "from-ben";
  run w;
  Alcotest.(check int) "both sides" 2 (List.length !hits);
  (* Ben's traffic enters via the second box; the anycast service must
     have handled each on its own boundary (§3.2 statelessness means any
     replica works). *)
  let fwd =
    List.map
      (fun b -> (Core.Neutralizer.counters b).data_forwarded)
      w.Scenario.World.boxes
  in
  Alcotest.(check bool) "both replicas forwarded" true
    (List.for_all (fun n -> n >= 1) fwd)

let test_session_survives_master_rotation () =
  let w = world () in
  let c = client w "rot" in
  let got = ref 0 in
  Core.Client.set_receiver c (fun ~peer:_ _ -> incr got);
  Core.Client.send_to_name c ~name:"google.example" "before";
  (* Rotate the master key while the first exchange settles, then send
     again: the old grant keeps working through the previous-epoch grace
     window. *)
  ignore
    (Net.Engine.schedule_s w.Scenario.World.engine ~delay_s:1.0 (fun () ->
         Core.Master_key.rotate w.Scenario.World.master));
  ignore
    (Net.Engine.schedule_s w.Scenario.World.engine ~delay_s:2.0 (fun () ->
         Core.Client.send_to_name c ~name:"google.example" "after"));
  run w;
  Alcotest.(check int) "both delivered" 2 !got;
  let rej =
    List.fold_left
      (fun a b -> a + (Core.Neutralizer.counters b).rejected_epoch)
      0 w.Scenario.World.boxes
  in
  Alcotest.(check int) "no epoch rejections" 0 rej

let test_dscp_preserved_end_to_end () =
  let w = world () in
  let c = client w "dscp" in
  let google = Scenario.World.site w "google" in
  let seen = ref (-1) in
  Net.Host.on_deliver google.Scenario.World.host (fun p ->
      if p.Net.Packet.protocol = Net.Packet.Shim && p.Net.Packet.dscp > 0 then
        seen := p.Net.Packet.dscp);
  Core.Client.send_to_name c ~name:"google.example"
    ~dscp:Core.Protocol.dscp_ef "priority";
  run w;
  Alcotest.(check int) "EF preserved through the box" Core.Protocol.dscp_ef !seen

let test_reverse_direction () =
  let w = world () in
  (* Ann owns a long-term keypair so customers can initiate to her. *)
  let ann_key = Scenario.Keyring.e2e 7 in
  let drbg = Crypto.Drbg.create ~seed:"rev-cfg" in
  let base = Core.Client.default_config ~rng:(fun n -> Crypto.Drbg.generate drbg n) in
  let cfg =
    { base with
      Core.Client.dns_server = Some w.Scenario.World.resolver_addr;
      onetime_keygen = Scenario.Keyring.onetime_pool ()
    }
  in
  let c =
    Core.Client.create w.Scenario.World.ann_host ~keypair:ann_key ~config:cfg
      ~seed:"rev" ()
  in
  let got = ref None in
  Core.Client.set_receiver c (fun ~peer msg -> got := Some (peer, msg));
  let google = Scenario.World.site w "google" in
  Core.Server.initiate google.Scenario.World.server
    ~outside:w.Scenario.World.ann.addr ~peer_key:ann_key.Crypto.Rsa.public
    ~app:"push" "server-push-1";
  run w;
  (match !got with
   | Some (peer, msg) ->
     Alcotest.(check string) "payload" "server-push-1" msg;
     Alcotest.(check string) "peer unblinded to google"
       (Net.Ipaddr.to_string google.Scenario.World.node.addr)
       (Net.Ipaddr.to_string peer)
   | None -> Alcotest.fail "reverse flow not delivered");
  Alcotest.(check int) "accepted as reverse" 1
    (Core.Client.counters c).reverse_accepted;
  (* and no key setup was needed: the grant came inside the payload *)
  Alcotest.(check int) "no client key setup" 0
    (Core.Client.counters c).key_setups_started;
  (* opacity holds for reverse flows too *)
  Alcotest.(check int) "no leak" 0
    (Scenario.World.observed_address_leaks w.Scenario.World.att_trace
       google.Scenario.World.node.addr)

let test_reverse_then_reply () =
  let w = world () in
  let ann_key = Scenario.Keyring.e2e 7 in
  let drbg = Crypto.Drbg.create ~seed:"rev2-cfg" in
  let base = Core.Client.default_config ~rng:(fun n -> Crypto.Drbg.generate drbg n) in
  let cfg =
    { base with
      Core.Client.dns_server = Some w.Scenario.World.resolver_addr;
      onetime_keygen = Scenario.Keyring.onetime_pool ()
    }
  in
  let c =
    Core.Client.create w.Scenario.World.ann_host ~keypair:ann_key ~config:cfg
      ~seed:"rev2" ()
  in
  let google = Scenario.World.site w "google" in
  (* When Ann receives the push she answers over the same session using
     the grant delivered in the payload. *)
  Core.Client.set_receiver c (fun ~peer msg ->
      if msg = "ping" then
        Core.Client.send_to c ~dest:peer
          ~peer_key:google.Scenario.World.key.Crypto.Rsa.public
          ~neutralizers:[ w.Scenario.World.anycast ] "pong");
  let answered = ref false in
  Core.Server.set_responder google.Scenario.World.server (fun _ ~peer:_ msg ->
      if msg = "pong" then answered := true);
  Core.Server.initiate google.Scenario.World.server
    ~outside:w.Scenario.World.ann.addr ~peer_key:ann_key.Crypto.Rsa.public "ping";
  run w;
  Alcotest.(check bool) "round trip completed" true !answered

let test_qos_dynamic_address () =
  let w = world () in
  let google = Scenario.World.site w "google" in
  let dyn = ref None in
  Core.Server.request_qos_address google.Scenario.World.server (function
    | Ok a -> dyn := Some a
    | Error _ -> ());
  run w;
  match !dyn with
  | None -> Alcotest.fail "no dynamic address granted"
  | Some dyn_addr ->
    Alcotest.(check bool) "differs from the customer address" true
      (not (Net.Ipaddr.equal dyn_addr google.Scenario.World.node.addr));
    (* Traffic to the dynamic address reaches google... *)
    let got = ref 0 in
    Net.Host.listen google.Scenario.World.host ~port:4000 (fun _ _ -> incr got);
    Net.Host.send_udp w.Scenario.World.ann_host ~dst:dyn_addr ~dst_port:4000
      ~dscp:Core.Protocol.dscp_ef "qos flow";
    run w;
    Alcotest.(check int) "NATted through" 1 !got;
    (* ...while AT&T never saw google's real address on those packets. *)
    Alcotest.(check int) "still no leak" 0
      (Scenario.World.observed_address_leaks w.Scenario.World.att_trace
         google.Scenario.World.node.addr);
    let box_maps =
      List.concat_map Core.Neutralizer.qos_mappings w.Scenario.World.boxes
    in
    Alcotest.(check bool) "mapping recorded" true
      (List.exists
         (fun (d, c) ->
           Net.Ipaddr.equal d dyn_addr
           && Net.Ipaddr.equal c google.Scenario.World.node.addr)
         box_maps)

let test_offload () =
  let w = Scenario.World.create ~offload_via:"google" () in
  let c = client w "offload" in
  let got = ref 0 in
  Core.Client.set_receiver c (fun ~peer:_ _ -> incr got);
  Core.Client.send_to_name c ~name:"yahoo.example" "hi";
  run w;
  Alcotest.(check int) "delivered" 1 !got;
  let box_rsa =
    List.fold_left
      (fun a b -> a + (Core.Neutralizer.counters b).key_setups)
      0 w.Scenario.World.boxes
  in
  let box_stamps =
    List.fold_left
      (fun a b -> a + (Core.Neutralizer.counters b).offloaded)
      0 w.Scenario.World.boxes
  in
  Alcotest.(check int) "box did no RSA" 0 box_rsa;
  Alcotest.(check bool) "box stamped" true (box_stamps >= 1);
  let helper = Scenario.World.site w "google" in
  Alcotest.(check bool) "helper served" true
    ((Core.Server.counters helper.Scenario.World.server).offload_served >= 1)

let test_unknown_name_error () =
  let w = world () in
  let c = client w "err" in
  let err = ref "" in
  Core.Client.send_to_name c ~name:"nonexistent.example"
    ~on_error:(fun e -> err := e)
    "x";
  run w;
  Alcotest.(check bool) "error surfaced" true (!err <> "");
  Alcotest.(check int) "counted" 1 (Core.Client.counters c).errors

let test_key_setup_timeout_failover () =
  let w = world () in
  (* A dead anycast address published as the site's only neutralizer. *)
  let dead = Net.Ipaddr.of_string "10.2.255.99" in
  Net.Topology.register_anycast w.Scenario.World.topo dead
    [ (List.hd w.Scenario.World.boxes |> Core.Neutralizer.node).Net.Topology.nid ];
  (* point it at a node that drops everything *)
  let blackhole =
    Net.Topology.add_node w.Scenario.World.topo ~domain:w.Scenario.World.cogent
      ~kind:Net.Topology.Router ~name:"blackhole"
  in
  Net.Topology.add_link w.Scenario.World.topo blackhole.nid
    w.Scenario.World.att_router.nid ~bandwidth_bps:1_000_000_000
    ~latency:1_000_000L ();
  Net.Topology.register_anycast w.Scenario.World.topo dead [ blackhole.nid ];
  Net.Network.recompute_routes w.Scenario.World.net;
  Net.Network.set_handler w.Scenario.World.net blackhole.nid (fun _ _ _ -> ());
  let google = Scenario.World.site w "google" in
  let c = client w "failover" in
  let got = ref 0 in
  Core.Client.set_receiver c (fun ~peer:_ _ -> incr got);
  (* Both the dead and the live neutralizer are published: trial and
     error must land on the live one. *)
  Core.Client.send_to c ~dest:google.Scenario.World.node.addr
    ~peer_key:google.Scenario.World.key.Crypto.Rsa.public
    ~neutralizers:[ dead; w.Scenario.World.anycast ]
    "persistent";
  run w;
  Alcotest.(check int) "delivered after failover" 1 !got;
  Alcotest.(check bool) "a setup failed first" true
    ((Core.Client.counters c).key_setups_failed >= 1)

let test_setup_retry_timeline () =
  (* With every box down, one send pays the whole key-setup retry
     discipline: three requests, one 250 ms timeout apart, then a single
     failed setup reported to the caller. *)
  let w = world () in
  List.iter Core.Neutralizer.crash w.Scenario.World.boxes;
  let arrivals = ref [] in
  Net.Network.add_tap w.Scenario.World.net w.Scenario.World.cogent (fun o ->
      match Option.bind o.Net.Observation.shim Core.Shim.decode with
      | Some (Core.Shim.Key_setup_request _)
        when Net.Ipaddr.equal o.dst w.Scenario.World.anycast ->
        arrivals := o.observed_at :: !arrivals
      | _ -> ());
  let c = client w "retry-timeline" in
  let errors = ref [] in
  Core.Client.send_to_name c ~name:"google.example"
    ~on_error:(fun e -> errors := e :: !errors)
    "hello";
  run w;
  let arrivals = List.rev !arrivals in
  Alcotest.(check int) "three requests reach a box" 3 (List.length arrivals);
  let rec gaps = function
    | a :: (b :: _ as rest) -> Int64.sub b a :: gaps rest
    | _ -> []
  in
  Alcotest.(check (list int64)) "one timeout apart"
    [ 250_000_000L; 250_000_000L ] (gaps arrivals);
  let ctrs = Core.Client.counters c in
  Alcotest.(check int) "one setup started" 1 ctrs.key_setups_started;
  Alcotest.(check int) "one setup failed" 1 ctrs.key_setups_failed;
  Alcotest.(check (list string)) "caller told" [ "key setup failed" ] !errors

let test_box_statelessness_counters () =
  (* The box exposes no per-source state; after a busy run its only
     tables are the optional QoS map (unused here). *)
  let w = world () in
  let c = client w "stateless" in
  for i = 1 to 20 do
    Core.Client.send_to_name c ~name:"google.example" (string_of_int i)
  done;
  run w;
  List.iter
    (fun b ->
      Alcotest.(check int) "no qos state" 0
        (List.length (Core.Neutralizer.qos_mappings b)))
    w.Scenario.World.boxes

(* The opacity guarantee as a randomized property: any interleaving of
   sends from Ann to random sites delivers everything and leaks nothing. *)
let opacity_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8 ~name:"randomized opacity + delivery"
       ~print:(fun plan ->
         String.concat ","
           (List.map (fun (s, n) -> Printf.sprintf "%s*%d" s n) plan))
       QCheck2.Gen.(
         list_size (int_range 1 6)
           (tup2 (oneofl Scenario.World.site_names) (int_range 1 5)))
       (fun plan ->
         let w = world () in
         let c = client w "prop" in
         let got = ref 0 in
         Core.Client.set_receiver c (fun ~peer:_ _ -> incr got);
         let total = List.fold_left (fun a (_, n) -> a + n) 0 plan in
         List.iteri
           (fun i (site, n) ->
             for j = 1 to n do
               ignore
                 (Net.Engine.schedule_s w.Scenario.World.engine
                    ~delay_s:(0.01 *. float_of_int ((i * 7) + j))
                    (fun () ->
                      Core.Client.send_to_name c ~name:(site ^ ".example")
                        (Printf.sprintf "%s-%d" site j)))
             done)
           plan;
         run w;
         let leaks =
           List.fold_left
             (fun acc name ->
               acc
               + Scenario.World.observed_address_leaks
                   w.Scenario.World.att_trace
                   (Scenario.World.site w name).Scenario.World.node.addr)
             0 Scenario.World.site_names
         in
         !got = total && leaks = 0))

let test_good_intentioned_discrimination_lost () =
  (* §3.6: "if packets are not encrypted or neutralized, an ISP may
     inspect packet contents and prevent unwanted traffic (e.g. viruses)
     ... our design prevents such good-intentioned discrimination." *)
  let w = world () in
  (* The world's engine reports into the process-wide registry, which
     earlier tests have already bumped: count this test's drops as a
     delta. *)
  let policy_drops () =
    Obs.Counter.value
      (Obs.Registry.counter
         (Net.Engine.obs w.Scenario.World.engine)
         ~labels:[ ("reason", "policy") ]
         "net.network.dropped")
  in
  let drops_before = policy_drops () in
  let virus_marker = "X5O!VIRUS-TEST-SIGNATURE" in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    nl > 0 && go 0
  in
  Net.Network.add_middleware w.Scenario.World.net w.Scenario.World.att
    (fun o ->
      if contains o.Net.Observation.payload virus_marker then
        Net.Network.Drop
      else Net.Network.Forward);
  let google = Scenario.World.site w "google" in
  let received = ref [] in
  Core.Server.set_responder google.Scenario.World.server (fun _ ~peer:_ m ->
      received := m :: !received);
  (* plain transmission: the filter catches the "virus" *)
  Net.Host.listen google.Scenario.World.host ~port:25 (fun _ p ->
      received := p.Net.Packet.payload :: !received);
  Net.Host.send_udp w.Scenario.World.ann_host
    ~dst:google.Scenario.World.node.addr ~dst_port:25
    ("mail body " ^ virus_marker);
  (* neutralized transmission: the filter is blind *)
  let c = client w "virus" in
  Core.Client.send_to_name c ~name:"google.example"
    ("mail body " ^ virus_marker);
  run w;
  Alcotest.(check int) "plain virus filtered, neutralized got through" 1
    (List.length !received);
  Alcotest.(check bool) "and it was the neutralized one" true
    (contains (List.hd !received) virus_marker);
  Alcotest.(check int) "one policy drop" 1 (policy_drops () - drops_before)

let test_exchange_under_valley_free_routing () =
  (* The whole protocol on the same topology but with Gao-Rexford policy
     routing: every Fig-1 path is up*/peer/down*, so nothing changes for
     the user — and the opacity guarantee is routing-policy independent. *)
  let w = Scenario.World.create ~policy:Net.Routing.Valley_free () in
  let c = client w "vf" in
  let got = ref 0 in
  Core.Client.set_receiver c (fun ~peer:_ _ -> incr got);
  for i = 1 to 3 do
    Core.Client.send_to_name c ~name:"google.example" (string_of_int i)
  done;
  run w;
  Alcotest.(check int) "delivered under policy routing" 3 !got;
  let google = Scenario.World.site w "google" in
  Alcotest.(check int) "still opaque" 0
    (Scenario.World.observed_address_leaks w.Scenario.World.att_trace
       google.Scenario.World.node.addr)

let test_server_session_gc () =
  let w = world () in
  let google = Scenario.World.site w "google" in
  let stop_gc =
    Core.Server.enable_gc google.Scenario.World.server
      ~every:10_000_000_000L ~idle:30_000_000_000L ()
  in
  let c = client w "gc" in
  Core.Client.send_to_name c ~name:"google.example" "transient";
  (* give the sweeps 2 simulated minutes, then cancel so the engine can
     drain *)
  ignore
    (Net.Engine.schedule_s w.Scenario.World.engine ~delay_s:120.0 stop_gc);
  run w;
  Alcotest.(check int) "idle session collected" 0
    (Core.Session.count (Core.Server.sessions google.Scenario.World.server))

let test_hourly_rekey () =
  (* §4: "a source outside a neutralizer's domain at most needs to send a
     key request once an hour." The client re-keys when its grant
     approaches the master-key lifetime. *)
  let w = world () in
  let c = client w "rekey" in
  let got = ref 0 in
  Core.Client.set_receiver c (fun ~peer:_ _ -> incr got);
  Core.Client.send_to_name c ~name:"google.example" "at t=0";
  (* rotate the master key on schedule, as the operator would *)
  ignore
    (Net.Engine.schedule_s w.Scenario.World.engine ~delay_s:3000.0 (fun () ->
         Core.Master_key.rotate w.Scenario.World.master));
  ignore
    (Net.Engine.schedule_s w.Scenario.World.engine ~delay_s:3500.0 (fun () ->
         Core.Client.send_to_name c ~name:"google.example" "at t=58min"));
  run w;
  Alcotest.(check int) "both delivered" 2 !got;
  Alcotest.(check int) "re-keyed exactly once more" 2
    (Core.Client.counters c).key_setups_completed

let () =
  Alcotest.run "e2e"
    [ ( "forward-path",
        [ Alcotest.test_case "basic exchange" `Quick test_basic_exchange;
          Alcotest.test_case "opacity in access ISP" `Quick
            test_opacity_inside_access_isp;
          Alcotest.test_case "dns names hidden" `Quick test_dns_names_hidden;
          Alcotest.test_case "grant reused across destinations" `Quick
            test_one_grant_for_all_destinations;
          Alcotest.test_case "two access ISPs" `Quick test_two_access_isps;
          Alcotest.test_case "master rotation" `Quick
            test_session_survives_master_rotation;
          Alcotest.test_case "steady-state echo compressions" `Quick
            test_steady_state_compressions;
          Alcotest.test_case "new flow RSA budget" `Quick
            test_new_flow_rsa_budget;
          Alcotest.test_case "dscp preserved" `Quick
            test_dscp_preserved_end_to_end
        ] );
      ( "reverse-path",
        [ Alcotest.test_case "server initiates" `Quick test_reverse_direction;
          Alcotest.test_case "reverse then reply" `Quick test_reverse_then_reply
        ] );
      ( "qos-offload",
        [ Alcotest.test_case "qos dynamic address" `Quick
            test_qos_dynamic_address;
          Alcotest.test_case "offload" `Quick test_offload
        ] );
      ( "failure-handling",
        [ Alcotest.test_case "unknown name" `Quick test_unknown_name_error;
          Alcotest.test_case "setup timeout failover" `Quick
            test_key_setup_timeout_failover;
          Alcotest.test_case "setup retry timeline" `Quick
            test_setup_retry_timeline;
          Alcotest.test_case "box statelessness" `Quick
            test_box_statelessness_counters
        ] );
      ( "properties-and-tradeoffs",
        [ opacity_property;
          Alcotest.test_case "good-intentioned discrimination lost" `Quick
            test_good_intentioned_discrimination_lost;
          Alcotest.test_case "hourly re-key" `Quick test_hourly_rekey;
          Alcotest.test_case "valley-free routing" `Quick
            test_exchange_under_valley_free_routing;
          Alcotest.test_case "server session gc" `Quick test_server_session_gc
        ] )
    ]
