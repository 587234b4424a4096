(* Tests for the extension modules: the differential-probe detector, the
   timing/size traffic analyser, and adaptive masking. *)

(* ---- masking primitives ---- *)

let prop name gen print f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name ~print gen f)

let test_wrap_unwrap () =
  let w = Core.Masking.wrap "hello" in
  Alcotest.(check int) "bucketed" 0 (String.length w mod Core.Masking.default_bucket);
  Alcotest.(check bool) "roundtrip" true (Core.Masking.unwrap w = Some (Some "hello"));
  Alcotest.(check bool) "dummy recognized" true
    (Core.Masking.unwrap (Core.Masking.dummy ()) = Some None);
  Alcotest.(check bool) "garbage" true (Core.Masking.unwrap "zzz" = None);
  Alcotest.(check bool) "dummy same size as small wrap" true
    (String.length (Core.Masking.dummy ()) = String.length (Core.Masking.wrap "x"))

let masking_props =
  [ prop "wrap/unwrap roundtrip any payload"
      QCheck2.Gen.(string_size ~gen:char (int_bound 2000))
      (Printf.sprintf "%S")
      (fun payload ->
        Core.Masking.unwrap (Core.Masking.wrap payload) = Some (Some payload));
    prop "all payloads under one bucket share a size"
      QCheck2.Gen.(string_size ~gen:char (int_bound 400))
      (Printf.sprintf "%S")
      (fun payload ->
        String.length (Core.Masking.wrap ~bucket:512 payload)
        = if String.length payload <= 507 then 512 else 1024)
  ]

let test_overhead () =
  Alcotest.(check (float 0.01)) "160B into 512" 3.2 (Core.Masking.overhead 160);
  Alcotest.(check bool) "larger payloads amortize" true
    (Core.Masking.overhead 1500 < Core.Masking.overhead 100)

let test_pacer () =
  let e = Net.Engine.create () in
  let emitted = ref [] in
  let p =
    Core.Masking.Pacer.create e ~interval:10_000_000L ~bucket:256
      ~emit:(fun s -> emitted := (Net.Engine.now e, s) :: !emitted)
      ~duration:100_000_000L ()
  in
  Core.Masking.Pacer.offer p "one";
  Core.Masking.Pacer.offer p "two";
  Net.Engine.run e;
  let emitted = List.rev !emitted in
  (* one emission per tick, none after the deadline *)
  Alcotest.(check int) "tick count" 9 (List.length emitted);
  let times = List.map fst emitted in
  Alcotest.(check (list int64)) "constant rate"
    (List.init 9 (fun i -> Int64.of_int ((i + 1) * 10_000_000)))
    times;
  (* sizes identical whether data or dummy *)
  List.iter
    (fun (_, s) -> Alcotest.(check int) "uniform size" 256 (String.length s))
    emitted;
  Alcotest.(check int) "data sent" 2 (Core.Masking.Pacer.sent_data p);
  Alcotest.(check int) "dummies fill the rest" 7 (Core.Masking.Pacer.sent_dummies p);
  (* the first two emissions carry the queued data *)
  (match emitted with
   | (_, first) :: (_, second) :: _ ->
     Alcotest.(check bool) "first is data" true
       (Core.Masking.unwrap first = Some (Some "one"));
     Alcotest.(check bool) "second is data" true
       (Core.Masking.unwrap second = Some (Some "two"))
   | _ -> Alcotest.fail "no emissions")

let test_pacer_stop () =
  let e = Net.Engine.create () in
  let count = ref 0 in
  let p =
    Core.Masking.Pacer.create e ~interval:10_000_000L
      ~emit:(fun _ -> incr count)
      ~duration:1_000_000_000L ()
  in
  ignore
    (Net.Engine.schedule e ~delay:35_000_000L (fun () ->
         Core.Masking.Pacer.stop p));
  Net.Engine.run e;
  Alcotest.(check int) "stopped early" 3 !count

(* ---- timing analysis ---- *)

let synth_stream analysis ~src ~n ~interval_ns ~size ~jitter =
  let st = Random.State.make [| 0xfeed |] in
  let t = ref 0L in
  for i = 0 to n - 1 do
    let jig =
      if jitter > 0 then Random.State.int st jitter - (jitter / 2) else 0
    in
    t := Int64.add !t (Int64.of_int (interval_ns + jig));
    let p =
      Net.Packet.make ~protocol:Net.Packet.Shim
        ~shim:(String.make 20 '\x02')
        ~src:(Net.Ipaddr.of_string src)
        ~dst:(Net.Ipaddr.of_string "10.2.255.1")
        (String.make size 'x')
    in
    ignore i;
    Discrimination.Timing_analysis.observe analysis
      (Net.Observation.of_packet ~now:!t p)
  done

let verdict = Alcotest.testable Discrimination.Timing_analysis.pp_verdict ( = )

let test_timing_voip () =
  let a = Discrimination.Timing_analysis.create () in
  (* 50 pps, 200-byte wire packets, low jitter *)
  synth_stream a ~src:"10.1.0.2" ~n:200 ~interval_ns:20_000_000 ~size:160
    ~jitter:2_000_000;
  Alcotest.check verdict "voip" Discrimination.Timing_analysis.Looks_voip
    (Discrimination.Timing_analysis.classify_source a
       (Net.Ipaddr.of_string "10.1.0.2"))

let test_timing_video () =
  let a = Discrimination.Timing_analysis.create () in
  synth_stream a ~src:"10.1.0.3" ~n:200 ~interval_ns:33_000_000 ~size:1200
    ~jitter:3_000_000;
  Alcotest.check verdict "video" Discrimination.Timing_analysis.Looks_video
    (Discrimination.Timing_analysis.classify_source a
       (Net.Ipaddr.of_string "10.1.0.3"))

let test_timing_web () =
  let a = Discrimination.Timing_analysis.create () in
  (* bursty: alternate 5 ms and 500 ms gaps, mixed sizes *)
  let st = Random.State.make [| 3 |] in
  let t = ref 0L in
  for i = 0 to 199 do
    let gap = if i mod 5 = 0 then 500_000_000 else 5_000_000 in
    t := Int64.add !t (Int64.of_int gap);
    let size = 60 + Random.State.int st 700 in
    Discrimination.Timing_analysis.observe a
      (Net.Observation.of_packet ~now:!t
         (Net.Packet.make ~protocol:Net.Packet.Shim
            ~shim:(String.make 20 '\x02')
            ~src:(Net.Ipaddr.of_string "10.1.0.4")
            ~dst:(Net.Ipaddr.of_string "10.2.255.1")
            (String.make size 'x')))
  done;
  Alcotest.check verdict "web" Discrimination.Timing_analysis.Looks_web
    (Discrimination.Timing_analysis.classify_source a
       (Net.Ipaddr.of_string "10.1.0.4"))

let test_timing_needs_data () =
  let a = Discrimination.Timing_analysis.create () in
  synth_stream a ~src:"10.1.0.5" ~n:5 ~interval_ns:20_000_000 ~size:160 ~jitter:0;
  Alcotest.check verdict "too few packets" Discrimination.Timing_analysis.Unknown
    (Discrimination.Timing_analysis.classify_source a
       (Net.Ipaddr.of_string "10.1.0.5"));
  Alcotest.(check bool) "no features yet" true
    (Discrimination.Timing_analysis.features_of a (Net.Ipaddr.of_string "10.1.0.5")
     = None)

let test_timing_ignores_plain () =
  let a = Discrimination.Timing_analysis.create () in
  for i = 1 to 50 do
    Discrimination.Timing_analysis.observe a
      (Net.Observation.of_packet
         ~now:(Int64.of_int (i * 20_000_000))
         (Net.Packet.make
            ~src:(Net.Ipaddr.of_string "10.1.0.6")
            ~dst:(Net.Ipaddr.of_string "10.2.0.1")
            "plain udp"))
  done;
  Alcotest.(check (list string)) "only shim traffic tracked" []
    (List.map Net.Ipaddr.to_string (Discrimination.Timing_analysis.sources a))

let test_masking_defeats_analysis () =
  (* the core E9 claim at unit-test scale: pad+pace three very different
     app streams and the analyser can no longer tell them apart *)
  let a = Discrimination.Timing_analysis.create () in
  let mask src =
    let t = ref 0L in
    for _ = 1 to 150 do
      t := Int64.add !t 20_000_000L;
      Discrimination.Timing_analysis.observe a
        (Net.Observation.of_packet ~now:!t
           (Net.Packet.make ~protocol:Net.Packet.Shim
              ~shim:(String.make 20 '\x02')
              ~src:(Net.Ipaddr.of_string src)
              ~dst:(Net.Ipaddr.of_string "10.2.255.1")
              (Core.Masking.wrap ~bucket:1536 "whatever")))
    done
  in
  mask "10.1.0.7";
  mask "10.1.0.8";
  let v7 =
    Discrimination.Timing_analysis.classify_source a (Net.Ipaddr.of_string "10.1.0.7")
  in
  let v8 =
    Discrimination.Timing_analysis.classify_source a (Net.Ipaddr.of_string "10.1.0.8")
  in
  Alcotest.check verdict "identical verdicts" v7 v8

(* ---- differential probe ---- *)

type rig = {
  net : Net.Network.t;
  client : Net.Host.t;
  server : Net.Host.t;
  isp : Net.Topology.domain_id;
  engine : Net.Engine.t;
}

let make_rig () =
  let topo = Net.Topology.create () in
  let isp = Net.Topology.add_domain topo ~name:"isp" ~prefix:"10.1.0.0/16" in
  let ext = Net.Topology.add_domain topo ~name:"ext" ~prefix:"10.3.0.0/16" in
  let c = Net.Topology.add_node topo ~domain:isp ~kind:Host ~name:"c" in
  let r = Net.Topology.add_node topo ~domain:isp ~kind:Router ~name:"r" in
  let x = Net.Topology.add_node topo ~domain:ext ~kind:Router ~name:"x" in
  let s = Net.Topology.add_node topo ~domain:ext ~kind:Host ~name:"s" in
  Net.Topology.add_link topo c.nid r.nid ~bandwidth_bps:100_000_000 ~latency:1_000_000L ();
  Net.Topology.add_link topo r.nid x.nid ~bandwidth_bps:1_000_000_000 ~latency:5_000_000L ();
  Net.Topology.add_link topo x.nid s.nid ~bandwidth_bps:1_000_000_000 ~latency:1_000_000L ();
  let engine = Net.Engine.create () in
  let net = Net.Network.create engine topo in
  { net; client = Net.Host.attach net c; server = Net.Host.attach net s; isp; engine }

let test_probe_clean_path () =
  let rig = make_rig () in
  let verdict = ref None in
  Detection.Probe.run rig.net ~client:rig.client ~server:rig.server
    ~duration_s:2.0 Detection.Probe.voip_profile (fun v -> verdict := Some v);
  Net.Network.run rig.net;
  match !verdict with
  | None -> Alcotest.fail "no verdict"
  | Some v ->
    Alcotest.(check bool) "clean" false v.discriminated;
    Alcotest.(check int) "all app packets" v.app.sent v.app.received;
    Alcotest.(check int) "equal sent" v.app.sent v.control.sent

let test_probe_catches_classifier () =
  let rig = make_rig () in
  let throttle =
    Discrimination.Dsl.Throttle
      { rate_bps = 24_000; burst_bytes = 2_000; max_delay_ns = 500_000_000L }
  in
  Net.Network.add_middleware rig.net rig.isp
    (Discrimination.Dsl.middleware
       (Discrimination.Dsl.compile ~engine:rig.engine
          (Discrimination.Dsl.Rule
             (Discrimination.Dsl.App Discrimination.Classifier.Voip, throttle))));
  let verdict = ref None in
  Detection.Probe.run rig.net ~client:rig.client ~server:rig.server
    ~duration_s:2.0 Detection.Probe.voip_profile (fun v -> verdict := Some v);
  Net.Network.run rig.net;
  match !verdict with
  | None -> Alcotest.fail "no verdict"
  | Some v ->
    Alcotest.(check bool) "flagged" true v.discriminated;
    Alcotest.(check bool) "app suffered" true (v.app.loss > 0.05);
    Alcotest.(check bool) "control unharmed" true (v.control.loss < 0.02)

let test_probe_uniform_degradation_not_flagged () =
  let rig = make_rig () in
  (* a lossy uplink is not discrimination *)
  Net.Network.add_middleware rig.net rig.isp (fun _ ->
      Net.Network.Delay 50_000_000L);
  let verdict = ref None in
  Detection.Probe.run rig.net ~client:rig.client ~server:rig.server
    ~duration_s:2.0 Detection.Probe.voip_profile (fun v -> verdict := Some v);
  Net.Network.run rig.net;
  match !verdict with
  | None -> Alcotest.fail "no verdict"
  | Some v -> Alcotest.(check bool) "not flagged" false v.discriminated

let test_control_profile_shape () =
  let p = Detection.Probe.voip_profile in
  let c = Detection.Probe.control_of ~seed:"t" p in
  Alcotest.(check int) "same pps" p.pps c.pps;
  Alcotest.(check int) "same sizes" (String.length (p.payload_of 3))
    (String.length (c.payload_of 3));
  Alcotest.(check bool) "different port" true (p.dst_port <> c.dst_port);
  (* the control payload must not trip the classifier *)
  let o =
    Net.Observation.of_packet ~now:0L
      (Net.Packet.make ~dst_port:c.dst_port
         ~src:(Net.Ipaddr.of_string "10.1.0.2")
         ~dst:(Net.Ipaddr.of_string "10.3.0.9")
         (c.payload_of 0))
  in
  Alcotest.(check bool) "control not voip-classified" true
    (Discrimination.Classifier.classify o <> Discrimination.Classifier.Voip)

let () =
  Alcotest.run "detection-masking"
    [ ( "masking",
        [ Alcotest.test_case "wrap/unwrap" `Quick test_wrap_unwrap;
          Alcotest.test_case "overhead" `Quick test_overhead;
          Alcotest.test_case "pacer" `Quick test_pacer;
          Alcotest.test_case "pacer stop" `Quick test_pacer_stop
        ]
        @ masking_props );
      ( "timing-analysis",
        [ Alcotest.test_case "voip signature" `Quick test_timing_voip;
          Alcotest.test_case "video signature" `Quick test_timing_video;
          Alcotest.test_case "web signature" `Quick test_timing_web;
          Alcotest.test_case "needs data" `Quick test_timing_needs_data;
          Alcotest.test_case "ignores plain" `Quick test_timing_ignores_plain;
          Alcotest.test_case "masking defeats it" `Quick
            test_masking_defeats_analysis
        ] );
      ( "probe",
        [ Alcotest.test_case "clean path" `Quick test_probe_clean_path;
          Alcotest.test_case "catches classifier" `Quick
            test_probe_catches_classifier;
          Alcotest.test_case "uniform degradation not flagged" `Quick
            test_probe_uniform_degradation_not_flagged;
          Alcotest.test_case "control profile shape" `Quick
            test_control_profile_shape
        ] )
    ]
