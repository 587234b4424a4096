(* Tests for the adversary's toolkit: classifier, policies, shaping, and
   the §1 market model. *)

open Discrimination

let obs ?(protocol = Net.Packet.Udp) ?(dscp = 0) ?(src_port = 0)
    ?(dst_port = 0) ?shim ?(payload = "") () =
  Net.Observation.of_packet ~now:0L
    (Net.Packet.make ~protocol ~dscp ~src_port ~dst_port ?shim
       ~src:(Net.Ipaddr.of_string "10.1.0.2")
       ~dst:(Net.Ipaddr.of_string "10.2.0.3")
       payload)

let app = Alcotest.testable Classifier.pp_app_class ( = )

(* ---- classifier ---- *)

let test_classify_ports () =
  Alcotest.check app "voip port" Classifier.Voip (Classifier.classify (obs ~dst_port:5060 ()));
  Alcotest.check app "dns" Classifier.Dns_query (Classifier.classify (obs ~dst_port:53 ()));
  Alcotest.check app "web" Classifier.Web (Classifier.classify (obs ~dst_port:80 ()))

let test_classify_dpi () =
  Alcotest.check app "sip marker" Classifier.Voip
    (Classifier.classify (obs ~payload:"INVITE sip:bob SIP/2.0" ()));
  Alcotest.check app "http marker" Classifier.Web
    (Classifier.classify (obs ~payload:"GET /index.html" ()))

let test_classify_shim () =
  let ks = Core.Shim.encode (Core.Shim.Key_setup_request { pubkey = "k"; deadline = 0L }) in
  Alcotest.check app "key setup recognizable (3.6)" Classifier.Key_setup
    (Classifier.classify (obs ~protocol:Net.Packet.Shim ~shim:ks ()));
  let d =
    Core.Shim.encode
      (Core.Shim.Data
         { epoch = 0;
           nonce = String.make 8 'n';
           enc_addr = "aaaa";
           tag = "tttt";
           key_request = false;
           from_customer = false;
           refresh = None
         })
  in
  Alcotest.check app "data shim is just encrypted" Classifier.Encrypted
    (Classifier.classify (obs ~protocol:Net.Packet.Shim ~shim:d ()))

let test_entropy () =
  Alcotest.(check (float 0.01)) "constant" 0.0 (Classifier.payload_entropy (String.make 64 'a'));
  let random = Crypto.Drbg.generate (Crypto.Drbg.create ~seed:"e") 256 in
  Alcotest.(check bool) "random is high" true (Classifier.payload_entropy random > 7.0);
  Alcotest.(check bool) "text is low" true
    (Classifier.payload_entropy "the quick brown fox jumps over the lazy dog" < 5.0)

let test_entropy_edges () =
  (* Degenerate payloads the fuzzer generates on purpose: the estimator
     must return exactly 0.0 (a single symbol carries no information),
     never NaN from a 0*log(0) term or an empty histogram. *)
  List.iter
    (fun (name, payload) ->
      let e = Classifier.payload_entropy payload in
      Alcotest.(check bool) (name ^ " finite") false (Float.is_nan e);
      Alcotest.(check (float 0.0)) name 0.0 e)
    [ ("empty", "");
      ("one byte", "x");
      ("one NUL", "\000");
      ("identical bytes", String.make 1400 '\255')
    ];
  (* two symbols at 50/50: exactly one bit per byte *)
  Alcotest.(check (float 1e-9)) "two-symbol payload" 1.0
    (Classifier.payload_entropy "ababababab")

let test_key_setup_edges () =
  let ks kind = String.make 1 kind ^ String.make 19 'r' in
  (* the two key-setup shim kinds, and only those, on protocol 253 *)
  Alcotest.(check bool) "kind 0 request" true
    (Classifier.is_key_setup (obs ~protocol:Net.Packet.Shim ~shim:(ks '\000') ()));
  Alcotest.(check bool) "kind 1 response" true
    (Classifier.is_key_setup (obs ~protocol:Net.Packet.Shim ~shim:(ks '\001') ()));
  Alcotest.(check bool) "kind 2 data is not key setup" false
    (Classifier.is_key_setup (obs ~protocol:Net.Packet.Shim ~shim:(ks '\002') ()));
  (* degenerate shims must not crash the kind probe *)
  Alcotest.(check bool) "empty shim" false
    (Classifier.is_key_setup (obs ~protocol:Net.Packet.Shim ~shim:"" ()));
  Alcotest.(check bool) "one-byte shim is enough" true
    (Classifier.is_key_setup (obs ~protocol:Net.Packet.Shim ~shim:"\000" ()));
  Alcotest.(check bool) "no shim at all" false
    (Classifier.is_key_setup (obs ~protocol:Net.Packet.Shim ()));
  (* a key-setup-looking shim on the wrong protocol is not key setup *)
  Alcotest.(check bool) "kind 0 on UDP" false
    (Classifier.is_key_setup (obs ~protocol:Net.Packet.Udp ~shim:(ks '\000') ()))

let test_looks_encrypted () =
  let random = Crypto.Drbg.generate (Crypto.Drbg.create ~seed:"e2") 64 in
  Alcotest.(check bool) "random payload" true (Classifier.looks_encrypted (obs ~payload:random ()));
  Alcotest.(check bool) "plaintext" false
    (Classifier.looks_encrypted
       (obs ~payload:"hello this is an ordinary plain text message ok" ()))

(* ---- policy ---- *)

let verdict =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Dsl.verdict_to_string v))
    ( = )

(* Each case is judged by the reference interpreter, by the compiled
   table's verdict and by its middleware action, every one against the
   expected value written here rather than only against each other. *)
let check_policy name pol o want action =
  let table = Dsl.compile pol in
  Alcotest.check verdict (name ^ " (interpreter)") want
    (Dsl.interpret (Dsl.interp_create pol) o);
  Alcotest.check verdict (name ^ " (compiled)") want (Dsl.verdict table o);
  Alcotest.(check bool) (name ^ " (middleware)") true
    (Dsl.middleware table o = action)

let test_policy_matchers () =
  let open Dsl in
  let o = obs ~dscp:46 ~dst_port:5060 ~payload:"x" () in
  let matches name want pred =
    let v, action =
      if want then (V_drop, Net.Network.Drop)
      else (V_forward, Net.Network.Forward)
    in
    check_policy name (Rule (pred, Drop)) o v action
  in
  let addr = Net.Ipaddr.of_string and prefix = Net.Ipaddr.Prefix.of_string in
  matches "true" true True;
  matches "dscp" true (Dscp 46);
  matches "port" true (Dst_port 5060);
  matches "addr src" true (Addr (addr "10.1.0.2"));
  matches "addr dst" true (Addr (addr "10.2.0.3"));
  matches "addr other" false (Addr (addr "9.9.9.9"));
  matches "src_in" true (Src_in (prefix "10.1.0.0/16"));
  matches "src_in is not dst" false (Src_in (prefix "10.2.0.0/16"));
  matches "dst_in" true (Dst_in (prefix "10.2.0.0/16"));
  matches "dst_in is not src" false (Dst_in (prefix "10.1.0.0/16"));
  matches "not" false (Not True);
  matches "and" true (And (Dscp 46, Dst_port 5060));
  matches "and needs both" false (And (Dscp 9, Dst_port 5060));
  matches "or" true (Or (Dscp 9, Dst_port 5060));
  matches "size" true (Size_at_least 20);
  matches "size too small" false (Size_at_least 10_000)

let test_policy_first_match_wins () =
  let open Dsl in
  let pol = Union (Rule (Dscp 46, Allow), Rule (App Classifier.Voip, Drop)) in
  check_policy "ef voip allowed" pol (obs ~dscp:46 ~dst_port:5060 ()) V_allow
    Net.Network.Forward;
  check_policy "plain voip blocked" pol (obs ~dst_port:5060 ()) V_drop
    Net.Network.Drop;
  check_policy "unmatched forwards" pol (obs ~dst_port:9999 ()) V_forward
    Net.Network.Forward;
  (* Hit counting on an installed table: two hosts of one domain, each
     packet judged once at ingress delivery. *)
  let topo = Net.Topology.create () in
  let d = Net.Topology.add_domain topo ~name:"isp" ~prefix:"10.1.0.0/16" in
  let a = Net.Topology.add_node topo ~domain:d ~kind:Host ~name:"a" in
  let b = Net.Topology.add_node topo ~domain:d ~kind:Host ~name:"b" in
  Net.Topology.add_link topo a.nid b.nid ~bandwidth_bps:1_000_000_000
    ~latency:1_000_000L ();
  let net = Net.Network.create (Net.Engine.create ()) topo in
  let ctl = Control.install net ~domains:[ d ] pol in
  List.iter
    (fun (dscp, dst_port) ->
      Net.Network.send net ~from:a.nid
        (Net.Packet.make ~dscp ~dst_port ~src:a.addr ~dst:b.addr
           (Printf.sprintf "%d/%d" dscp dst_port)))
    [ (46, 5060); (0, 5060); (0, 9999) ];
  Net.Network.run net;
  Alcotest.(check int) "every packet judged" 3 (Control.verdicts ctl);
  Alcotest.(check int) "allow and no-match are not hits" 1 (Control.hits ctl)

let test_policy_actions () =
  let open Dsl in
  let pol =
    Union (Rule (Dscp 1, Delay 5_000_000L), Rule (Dscp 2, Set_dscp 0))
  in
  check_policy "delay" pol (obs ~dscp:1 ()) (V_delay 5_000_000L)
    (Net.Network.Delay 5_000_000L);
  check_policy "remark" pol (obs ~dscp:2 ()) (V_remark 0)
    (Net.Network.Remark 0)

(* ---- shaper ---- *)

let test_shaper_pass_and_throttle () =
  let e = Net.Engine.create () in
  (* 80 kbit/s = 10 kB/s, burst 2 kB *)
  let s = Shaper.create e ~rate_bps:80_000 ~burst_bytes:2_000 ~max_delay:100_000_000L in
  (* Within the burst everything passes. *)
  for _ = 1 to 10 do
    match Shaper.decide s ~size:100 with
    | Net.Network.Forward -> ()
    | _ -> Alcotest.fail "burst should pass"
  done;
  (* Now flood far beyond the rate: must see delays, then drops. *)
  let delays = ref 0 and drops = ref 0 in
  for _ = 1 to 200 do
    match Shaper.decide s ~size:100 with
    | Net.Network.Delay _ -> incr delays
    | Net.Network.Drop -> incr drops
    | Net.Network.Forward | Net.Network.Remark _ -> ()
  done;
  Alcotest.(check bool) "some delayed" true (!delays > 0);
  Alcotest.(check bool) "eventually drops" true (!drops > 0);
  Alcotest.(check int) "counters agree" !delays (Shaper.delayed s);
  Alcotest.(check int) "drop counter" !drops (Shaper.dropped s)

let test_shaper_refills_over_time () =
  let e = Net.Engine.create () in
  let s =
    Shaper.create e ~rate_bps:80_000 ~burst_bytes:1_000 ~max_delay:500_000_000L
  in
  (* exhaust *)
  for _ = 1 to 50 do
    ignore (Shaper.decide s ~size:100)
  done;
  (* a second of simulated idle refills the bucket *)
  ignore (Net.Engine.schedule e ~delay:1_000_000_000L (fun () -> ()));
  Net.Engine.run e;
  (match Shaper.decide s ~size:100 with
   | Net.Network.Forward -> ()
   | _ -> Alcotest.fail "should pass after refill")

(* ---- market ---- *)

let final ?(neutralized = false) policy =
  Market.final (Market.run ~neutralized Market.default_params policy)

let test_market_no_discrimination () =
  let f = final Market.No_discrimination in
  Alcotest.(check (float 0.02)) "share stable" 0.5 f.discriminator_share;
  Alcotest.(check (float 0.01)) "innovator keeps users" 1.0 f.innovator_users

let test_market_target_innovator () =
  let f = final Market.Degrade_innovator in
  (* the §1 story: inertia protects the ISP, the innovator dies *)
  Alcotest.(check bool) "share barely moves" true (f.discriminator_share > 0.4);
  Alcotest.(check bool) "innovator starved" true (f.innovator_users < 0.05);
  Alcotest.(check bool) "substitute wins" true (f.own_voip_users > 0.9)

let test_market_degrade_everything () =
  let f = final Market.Degrade_everything in
  Alcotest.(check bool) "mass churn" true (f.discriminator_share < 0.2)

let test_market_neutralized () =
  let f = final ~neutralized:true Market.Degrade_innovator in
  Alcotest.(check (float 0.01)) "innovator survives" 1.0 f.innovator_users;
  Alcotest.(check bool) "share stable" true (f.discriminator_share > 0.45)

let test_market_determinism () =
  let a = Market.run Market.default_params Market.Degrade_innovator in
  let b = Market.run Market.default_params Market.Degrade_innovator in
  Alcotest.(check bool) "same seed, same run" true (a = b)

let () =
  Alcotest.run "discrimination"
    [ ( "classifier",
        [ Alcotest.test_case "ports" `Quick test_classify_ports;
          Alcotest.test_case "dpi" `Quick test_classify_dpi;
          Alcotest.test_case "shim kinds" `Quick test_classify_shim;
          Alcotest.test_case "entropy" `Quick test_entropy;
          Alcotest.test_case "entropy edges" `Quick test_entropy_edges;
          Alcotest.test_case "key-setup edges" `Quick test_key_setup_edges;
          Alcotest.test_case "looks encrypted" `Quick test_looks_encrypted
        ] );
      ( "policy",
        [ Alcotest.test_case "matchers" `Quick test_policy_matchers;
          Alcotest.test_case "first match wins" `Quick
            test_policy_first_match_wins;
          Alcotest.test_case "actions" `Quick test_policy_actions
        ] );
      ( "shaper",
        [ Alcotest.test_case "pass and throttle" `Quick
            test_shaper_pass_and_throttle;
          Alcotest.test_case "refills" `Quick test_shaper_refills_over_time
        ] );
      ( "market",
        [ Alcotest.test_case "no discrimination" `Quick
            test_market_no_discrimination;
          Alcotest.test_case "target innovator" `Quick
            test_market_target_innovator;
          Alcotest.test_case "degrade everything" `Quick
            test_market_degrade_everything;
          Alcotest.test_case "neutralized" `Quick test_market_neutralized;
          Alcotest.test_case "deterministic" `Quick test_market_determinism
        ] )
    ]
