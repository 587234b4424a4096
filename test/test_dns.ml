(* Tests for the DNS substrate: codecs, zones, the resolver protocol over
   the simulated network, signatures and the encrypted query mode of
   §3.1. *)

let prop name gen print f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name ~print gen f)

let addr s = Net.Ipaddr.of_string s

(* ---- record / message codecs ---- *)

let gen_rr =
  let open QCheck2.Gen in
  let gen_addr = map (fun i -> Net.Ipaddr.of_int (i land 0xffffffff)) nat in
  oneof
    [ map (fun a -> Dns.Record.A a) gen_addr;
      map (fun a -> Dns.Record.Neut a) gen_addr;
      map (fun s -> Dns.Record.Key s) (string_size ~gen:char (int_bound 80));
      map (fun s -> Dns.Record.Txt s) (string_size ~gen:char (int_bound 80))
    ]

let print_rr rr = Format.asprintf "%a" Dns.Record.pp_rr rr

let rr_roundtrip rr =
  let buf = Buffer.create 32 in
  Dns.Record.encode_rr buf rr;
  match Dns.Record.decode_rr (Buffer.contents buf) 0 with
  | Some (rr', off) -> rr = rr' && off = Buffer.length buf
  | None -> false

let codec_props =
  [ prop "rr roundtrip" gen_rr print_rr rr_roundtrip;
    prop "response roundtrip"
      QCheck2.Gen.(
        tup3 (int_bound 100000)
          (string_size ~gen:(char_range 'a' 'z') (int_range 1 30))
          (list_size (int_bound 6) gen_rr))
      (fun (id, name, rrs) ->
        Printf.sprintf "%d %s (%d rrs)" id name (List.length rrs))
      (fun (id, qname, answers) ->
        let r =
          { Dns.Message.id; qname; rcode = Dns.Message.No_error; answers;
            signature = None }
        in
        Dns.Message.decode_response (Dns.Message.encode_response r) = Some r)
  ]

let test_query_codec () =
  let q = { Dns.Message.id = 77; qname = "google.example"; qtype = Dns.Record.Q_ANY } in
  Alcotest.(check bool) "roundtrip" true
    (Dns.Message.decode_query (Dns.Message.encode_query q) = Some q);
  Alcotest.(check bool) "garbage" true (Dns.Message.decode_query "garbage" = None);
  Alcotest.(check bool) "empty" true (Dns.Message.decode_query "" = None);
  let enc = Dns.Message.encode_query q in
  Alcotest.(check bool) "truncated" true
    (Dns.Message.decode_query (String.sub enc 0 (String.length enc - 3)) = None)

let test_response_signature_field () =
  let r =
    { Dns.Message.id = 1; qname = "x"; rcode = Dns.Message.Name_error;
      answers = []; signature = Some "sig-bytes" }
  in
  Alcotest.(check bool) "with signature" true
    (Dns.Message.decode_response (Dns.Message.encode_response r) = Some r)

(* ---- zone ---- *)

let test_zone () =
  let z = Dns.Zone.create () in
  Dns.Zone.add z ~name:"a.example" (Dns.Record.A (addr "10.0.0.1"));
  Dns.Zone.add z ~name:"a.example" (Dns.Record.Neut (addr "10.0.255.1"));
  Dns.Zone.add z ~name:"a.example" (Dns.Record.Key "k");
  Alcotest.(check int) "q_a" 1 (List.length (Dns.Zone.lookup z ~name:"a.example" Dns.Record.Q_A));
  Alcotest.(check int) "q_any" 3 (List.length (Dns.Zone.lookup z ~name:"a.example" Dns.Record.Q_ANY));
  Alcotest.(check int) "missing" 0 (List.length (Dns.Zone.lookup z ~name:"b.example" Dns.Record.Q_ANY));
  Alcotest.(check bool) "mem" true (Dns.Zone.mem z ~name:"a.example")

let test_site_info () =
  let key = Scenario.Keyring.e2e 0 in
  let answers =
    [ Dns.Record.A (addr "10.2.0.3");
      Dns.Record.Neut (addr "10.2.255.1");
      Dns.Record.Neut (addr "10.5.255.1");
      Dns.Record.Key (Crypto.Rsa.public_to_string key.Crypto.Rsa.public)
    ]
  in
  let info = Dns.Resolver.site_info_of_answers answers in
  Alcotest.(check int) "addrs" 1 (List.length info.addrs);
  Alcotest.(check int) "neutralizers" 2 (List.length info.neutralizers);
  Alcotest.(check bool) "key parsed" true (info.key <> None)

(* ---- resolver over the network ---- *)

type rig = {
  net : Net.Network.t;
  client_host : Net.Host.t;
  server_addr : Net.Ipaddr.t;
  zone : Dns.Zone.t;
  server : Dns.Resolver.server;
  key : Crypto.Rsa.private_key;
  isp_trace : Net.Trace.t;
}

let make_rig () =
  let topo = Net.Topology.create () in
  let isp = Net.Topology.add_domain topo ~name:"isp" ~prefix:"10.1.0.0/16" in
  let ext = Net.Topology.add_domain topo ~name:"ext" ~prefix:"10.3.0.0/16" in
  let client = Net.Topology.add_node topo ~domain:isp ~kind:Host ~name:"client" in
  let r1 = Net.Topology.add_node topo ~domain:isp ~kind:Router ~name:"r1" in
  let r2 = Net.Topology.add_node topo ~domain:ext ~kind:Router ~name:"r2" in
  let srv = Net.Topology.add_node topo ~domain:ext ~kind:Host ~name:"resolver" in
  Net.Topology.add_link topo client.nid r1.nid ~bandwidth_bps:100_000_000 ~latency:1_000_000L ();
  Net.Topology.add_link topo r1.nid r2.nid ~bandwidth_bps:1_000_000_000 ~latency:5_000_000L ();
  Net.Topology.add_link topo r2.nid srv.nid ~bandwidth_bps:1_000_000_000 ~latency:1_000_000L ();
  let engine = Net.Engine.create () in
  let net = Net.Network.create engine topo in
  let isp_trace = Net.Trace.create () in
  Net.Network.add_tap net isp (Net.Trace.tap isp_trace);
  let key = Scenario.Keyring.e2e 0 in
  let zone = Dns.Zone.create () in
  Dns.Zone.add zone ~name:"site.example" (Dns.Record.A (addr "10.3.0.99"));
  let server_host = Net.Host.attach net srv in
  let drbg = Crypto.Drbg.create ~seed:"dns-test" in
  let server =
    Dns.Resolver.serve server_host ~zone ~signer:key ~decryption_key:key
      ~rng:(fun n -> Crypto.Drbg.generate drbg n)
      ()
  in
  { net;
    client_host = Net.Host.attach net client;
    server_addr = srv.addr;
    zone;
    server;
    key;
    isp_trace
  }

let client_rng seed =
  let d = Crypto.Drbg.create ~seed in
  fun n -> Crypto.Drbg.generate d n

let test_resolve_plain () =
  let rig = make_rig () in
  let result = ref (Error Dns.Resolver.Timeout) in
  Dns.Resolver.resolve rig.client_host ~server:rig.server_addr
    ~name:"site.example" ~qtype:Dns.Record.Q_A (fun r -> result := r);
  Net.Network.run rig.net;
  (match !result with
   | Ok [ Dns.Record.A a ] ->
     Alcotest.(check string) "answer" "10.3.0.99" (Net.Ipaddr.to_string a)
   | Ok _ -> Alcotest.fail "unexpected answers"
   | Error e -> Alcotest.failf "error %a" Dns.Resolver.pp_error e);
  Alcotest.(check int) "served" 1 (Dns.Resolver.queries_served rig.server);
  (* Plain mode: the access ISP sees the query name (the §3.1 problem). *)
  Alcotest.(check bool) "qname visible to ISP" true
    (Net.Trace.exists rig.isp_trace (fun o ->
         let p = o.Net.Observation.payload in
         let has_sub hay needle =
           let nl = String.length needle and hl = String.length hay in
           let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
           go 0
         in
         has_sub p "site.example"))

let test_resolve_nxdomain () =
  let rig = make_rig () in
  let result = ref (Ok []) in
  Dns.Resolver.resolve rig.client_host ~server:rig.server_addr
    ~name:"nonexistent.example" ~qtype:Dns.Record.Q_A (fun r -> result := r);
  Net.Network.run rig.net;
  Alcotest.(check bool) "refused" true (!result = Error Dns.Resolver.Refused)

let test_resolve_signature () =
  let rig = make_rig () in
  let pub = rig.key.Crypto.Rsa.public in
  let ok = ref false in
  Dns.Resolver.resolve rig.client_host ~server:rig.server_addr ~verify:pub
    ~name:"site.example" ~qtype:Dns.Record.Q_A (function
    | Ok _ -> ok := true
    | Error _ -> ());
  Net.Network.run rig.net;
  Alcotest.(check bool) "verified" true !ok;
  (* Verifying against the wrong key must fail. *)
  let wrong = (Scenario.Keyring.e2e 1).Crypto.Rsa.public in
  let failed = ref false in
  Dns.Resolver.resolve rig.client_host ~server:rig.server_addr ~verify:wrong
    ~name:"site.example" ~qtype:Dns.Record.Q_A (function
    | Error Dns.Resolver.Bad_signature -> failed := true
    | Ok _ | Error _ -> ());
  Net.Network.run rig.net;
  Alcotest.(check bool) "bad signature detected" true !failed

let test_resolve_encrypted_hides_qname () =
  let rig = make_rig () in
  Net.Trace.clear rig.isp_trace;
  let result = ref (Error Dns.Resolver.Timeout) in
  Dns.Resolver.resolve rig.client_host ~server:rig.server_addr
    ~encrypt_to:rig.key.Crypto.Rsa.public ~rng:(client_rng "enc-dns")
    ~name:"site.example" ~qtype:Dns.Record.Q_A (fun r -> result := r);
  Net.Network.run rig.net;
  (match !result with
   | Ok [ Dns.Record.A _ ] -> ()
   | Ok _ | Error _ -> Alcotest.fail "encrypted resolve failed");
  let has_sub hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "qname hidden from ISP" false
    (Net.Trace.exists rig.isp_trace (fun o ->
         has_sub o.Net.Observation.payload "site.example"))

(* The resolver opens an encrypted query with one RSA decryption: the
   recovered secret opens the body and seals the reply. *)
let test_encrypted_one_decrypt () =
  let rig = make_rig () in
  let decrypts =
    Obs.Registry.counter Obs.Registry.default "crypto.rsa.decrypts"
  in
  let rng = client_rng "enc-dns-count" in
  let answered = ref 0 in
  for i = 1 to 3 do
    let before = Obs.Counter.value decrypts in
    Dns.Resolver.resolve rig.client_host ~server:rig.server_addr
      ~encrypt_to:rig.key.Crypto.Rsa.public ~rng ~name:"site.example"
      ~qtype:Dns.Record.Q_A (function
      | Ok [ Dns.Record.A _ ] -> incr answered
      | Ok _ | Error _ -> ());
    Net.Network.run rig.net;
    Alcotest.(check int)
      (Printf.sprintf "query %d: one decryption" i)
      1
      (Obs.Counter.value decrypts - before)
  done;
  Alcotest.(check int) "answered" 3 !answered;
  Alcotest.(check int) "served" 3 (Dns.Resolver.queries_served rig.server)

(* The resolver signs each RRset once per content version, as DNSSEC's
   offline RRSIGs do: a repeated answer reuses its signature, a zone
   change is re-signed on the next query, and NXDOMAIN is signed per
   query and never stored. Costs are deltas of [crypto.rsa.signs]. *)
let test_one_signature_per_rrset () =
  let rig = make_rig () in
  let pub = rig.key.Crypto.Rsa.public in
  let signs = Obs.Registry.counter Obs.Registry.default "crypto.rsa.signs" in
  let query ?encrypt_to ?rng ?(name = "site.example") qtype =
    let before = Obs.Counter.value signs in
    let result = ref (Error Dns.Resolver.Timeout) in
    Dns.Resolver.resolve rig.client_host ~server:rig.server_addr ?encrypt_to
      ?rng ~verify:pub ~name ~qtype (fun r -> result := r);
    Net.Network.run rig.net;
    (!result, Obs.Counter.value signs - before)
  in
  let addrs what = function
    | Ok answers, _ ->
      List.map
        (function
          | Dns.Record.A a -> Net.Ipaddr.to_string a
          | _ -> Alcotest.failf "%s: not an A record" what)
        answers
    | Error e, _ -> Alcotest.failf "%s: %a" what Dns.Resolver.pp_error e
  in
  let cost (_, n) = n in
  let repeated = List.init 3 (fun _ -> query Dns.Record.Q_A) in
  List.iteri
    (fun i r ->
      Alcotest.(check (list string))
        (Printf.sprintf "Q_A %d verifies" i)
        [ "10.3.0.99" ] (addrs "Q_A" r))
    repeated;
  Alcotest.(check (list int)) "three Q_A, one sign" [ 1; 0; 0 ]
    (List.map cost repeated);
  Alcotest.(check int) "Q_ANY is another RRset" 1 (cost (query Dns.Record.Q_ANY));
  Dns.Zone.add rig.zone ~name:"site.example" (Dns.Record.A (addr "10.3.0.100"));
  let changed = query Dns.Record.Q_A in
  Alcotest.(check (list string)) "changed RRset re-signed and verifies"
    [ "10.3.0.99"; "10.3.0.100" ] (addrs "changed Q_A" changed);
  Alcotest.(check int) "changed RRset costs one sign" 1 (cost changed);
  let missing =
    List.init 3 (fun _ -> query ~name:"missing.example" Dns.Record.Q_A)
  in
  List.iter
    (fun (r, _) ->
      Alcotest.(check bool) "NXDOMAIN refused" true
        (r = Error Dns.Resolver.Refused))
    missing;
  Alcotest.(check (list int)) "NXDOMAIN signed per query" [ 1; 1; 1 ]
    (List.map cost missing);
  let encrypted =
    query ~encrypt_to:pub ~rng:(client_rng "memo") Dns.Record.Q_A
  in
  Alcotest.(check (list string)) "encrypted answer verifies"
    [ "10.3.0.99"; "10.3.0.100" ] (addrs "encrypted Q_A" encrypted);
  Alcotest.(check int) "encrypted query reuses the signature" 0 (cost encrypted)

let test_resolve_timeout () =
  let rig = make_rig () in
  (* Point at an address that routes nowhere near a resolver. *)
  let result = ref (Ok []) in
  Dns.Resolver.resolve rig.client_host ~server:(addr "10.3.0.250")
    ~timeout:20_000_000L ~name:"site.example" ~qtype:Dns.Record.Q_A
    (fun r -> result := r);
  Net.Network.run rig.net;
  Alcotest.(check bool) "timeout" true (!result = Error Dns.Resolver.Timeout)

let test_bootstrap () =
  let rig = make_rig () in
  let key = Scenario.Keyring.e2e 2 in
  Dns.Zone.publish_site rig.zone ~name:"full.example" ~addr:(addr "10.3.0.50")
    ~neutralizers:[ addr "10.3.255.1" ]
    ~key:key.Crypto.Rsa.public;
  let got = ref None in
  Dns.Resolver.bootstrap rig.client_host ~server:rig.server_addr
    ~name:"full.example" (function
    | Ok info -> got := Some info
    | Error _ -> ());
  Net.Network.run rig.net;
  match !got with
  | Some info ->
    Alcotest.(check int) "addr" 1 (List.length info.addrs);
    Alcotest.(check int) "neut" 1 (List.length info.neutralizers);
    Alcotest.(check bool) "key" true (info.key <> None)
  | None -> Alcotest.fail "bootstrap failed"

let () =
  Alcotest.run "dns"
    [ ( "codecs",
        [ Alcotest.test_case "query" `Quick test_query_codec;
          Alcotest.test_case "signature field" `Quick
            test_response_signature_field
        ]
        @ codec_props );
      ( "zone",
        [ Alcotest.test_case "lookup" `Quick test_zone;
          Alcotest.test_case "site info" `Quick test_site_info
        ] );
      ( "resolver",
        [ Alcotest.test_case "plain" `Quick test_resolve_plain;
          Alcotest.test_case "nxdomain" `Quick test_resolve_nxdomain;
          Alcotest.test_case "signatures" `Quick test_resolve_signature;
          Alcotest.test_case "encrypted hides qname" `Quick
            test_resolve_encrypted_hides_qname;
          Alcotest.test_case "encrypted: one decryption per query" `Quick
            test_encrypted_one_decrypt;
          Alcotest.test_case "one signature per RRset" `Quick
            test_one_signature_per_rrset;
          Alcotest.test_case "timeout" `Quick test_resolve_timeout;
          Alcotest.test_case "bootstrap" `Quick test_bootstrap
        ] )
    ]
