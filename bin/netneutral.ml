(* Command-line driver: run any experiment of the reproduction, or the
   interactive demo, from one binary. *)

let quick_flag =
  let doc = "Shorter measurement windows and smaller workloads." in
  Cmdliner.Arg.(value & flag & info [ "quick" ] ~doc)

let metrics_opt =
  let doc =
    "After the run, export every obs metric family (engine, links, \
     datapath, neutralizer, crypto) as JSON to $(docv)."
  in
  Cmdliner.Arg.(
    value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

(* Write [json] to [file], naming it [what] in the messages; an
   unwritable path exits 1. *)
let write_json what file json =
  match open_out file with
  | exception Sys_error msg ->
    Printf.eprintf "netneutral: cannot write %s: %s\n" what msg;
    exit 1
  | oc ->
    output_string oc json;
    output_char oc '\n';
    close_out oc;
    Printf.printf "%s written to %s\n" what file

let write_metrics = function
  | None -> ()
  | Some file ->
    write_json "metrics" file (Obs.Export.to_json Obs.Registry.default)

(* A short end-to-end neutralized exchange on the Fig. 1 world, run only
   to populate the metric families for `stats` / `--metrics`. *)
let metrics_workload () =
  let world = Scenario.World.create () in
  let client =
    Scenario.World.make_client world world.Scenario.World.ann_host
      ~seed:"stats" ()
  in
  for i = 1 to 5 do
    Core.Client.send_to_name client ~name:"google.example" ~app:"web"
      (Printf.sprintf "probe-%d" i)
  done;
  Scenario.World.run world

let run_stats metrics =
  metrics_workload ();
  print_string (Obs.Export.to_text Obs.Registry.default);
  write_metrics metrics

let run_e1 quick =
  Experiments.E1_key_setup.(
    print (run ~min_time:(if quick then 0.1 else 0.5) ()))

let run_e2 quick =
  Experiments.E2_data_path.(
    print (run ~min_time:(if quick then 0.1 else 0.5) ()))

let run_e3 quick =
  Experiments.E3_crypto_ops.(
    print (run ~min_time:(if quick then 0.1 else 0.5) ()))

let run_e4 quick =
  Experiments.E4_vs_onion.(
    print (if quick then run ~sources:20 ~flows_per_source:2 () else run ()))

let run_e5 quick =
  Experiments.E5_voip.(
    print (if quick then run ~duration_s:3.0 () else run ()))

let run_e6 quick =
  Experiments.E6_dos.(
    print
      (if quick then run ~duration_s:1.5 ~attack_pps:20_000 () else run ()))

let run_e7 quick =
  Experiments.E7_multihome.(
    print (if quick then run ~packets:150 () else run ()))

let run_e8 _quick = Experiments.E8_market.(print (run ()))

let run_e9 quick =
  Experiments.E9_traffic_analysis.(
    print (run ~duration_s:(if quick then 4.0 else 8.0) ()))

let run_e10 quick =
  Experiments.E10_detection.(
    print (run ~duration_s:(if quick then 3.0 else 5.0) ()))

let run_e11 quick =
  Experiments.E11_blunt_instruments.(
    print (run ~duration_s:(if quick then 4.0 else 8.0) ()))

let run_e12 quick =
  Experiments.E12_chaos.(
    print (run ~duration_s:(if quick then 10.0 else 30.0) ()))

let run_e13 quick = Experiments.E13_overload.(print (run ~quick ()))

let run_ablations quick =
  Experiments.Ablations.(
    print (run ~min_time:(if quick then 0.1 else 0.4) ()))

let run_all quick =
  run_e1 quick;
  run_e2 quick;
  run_e3 quick;
  run_e4 quick;
  run_e5 quick;
  run_e6 quick;
  run_e7 quick;
  run_e8 quick;
  run_e9 quick;
  run_e10 quick;
  run_e11 quick;
  run_e12 quick;
  run_e13 quick;
  run_ablations quick

let demo () =
  (* A narrated end-to-end exchange on the Figure-1 topology. *)
  let world = Scenario.World.create () in
  let client =
    Scenario.World.make_client world world.Scenario.World.ann_host
      ~seed:"demo" ()
  in
  Core.Client.set_receiver client (fun ~peer msg ->
      Printf.printf "  ann <- %s: %S\n" (Net.Ipaddr.to_string peer) msg);
  print_endline "Ann (inside AT&T) sends three requests to google.example";
  print_endline "via Cogent's neutralizer; AT&T watches every packet.";
  for i = 1 to 3 do
    Core.Client.send_to_name client ~name:"google.example" ~app:"web"
      (Printf.sprintf "hello-%d" i)
  done;
  Scenario.World.run world;
  let google = Scenario.World.site world "google" in
  let leaks =
    Scenario.World.observed_address_leaks world.Scenario.World.att_trace
      google.Scenario.World.node.addr
  in
  Printf.printf
    "\nAT&T observed %d packets; %d of them revealed google's address.\n"
    (Net.Trace.length world.Scenario.World.att_trace)
    leaks;
  let c = Core.Client.counters client in
  Printf.printf
    "client: %d DNS lookups, %d key setups, %d data sent, %d replies, %d refreshes\n"
    c.dns_lookups c.key_setups_completed c.data_sent c.data_received
    c.refreshes_applied

let topology () =
  (* Dump the Figure-1 world: domains, nodes, links, anycast groups. *)
  let world = Scenario.World.create () in
  let topo = world.Scenario.World.topo in
  print_endline "domains:";
  List.iter
    (fun (d : Net.Topology.domain) ->
      Printf.printf "  %-10s %s\n" d.domain_name
        (Net.Ipaddr.Prefix.to_string d.prefix))
    (Net.Topology.domains topo);
  print_endline "nodes:";
  List.iter
    (fun (n : Net.Topology.node) ->
      Printf.printf "  %-14s %-15s %-16s %s\n" n.node_name
        (Net.Ipaddr.to_string n.addr)
        (match n.kind with
         | Net.Topology.Host -> "host"
         | Net.Topology.Router -> "router"
         | Net.Topology.Neutralizer_box -> "neutralizer-box")
        (Net.Topology.domain topo n.domain).domain_name)
    (Net.Topology.nodes topo);
  print_endline "links:";
  List.iter
    (fun (e : Net.Topology.edge) ->
      let name nid = (Net.Topology.node topo nid).node_name in
      Printf.printf "  %-14s <-> %-14s %4d Mbit/s %3Ld ms%s\n" (name e.a)
        (name e.b)
        (e.bandwidth_bps / 1_000_000)
        (Int64.div e.latency 1_000_000L)
        (match e.rel with
         | Some Net.Topology.Peer -> "  (peering)"
         | Some Net.Topology.Customer -> "  (customer)"
         | None -> ""))
    (Net.Topology.edges topo);
  Printf.printf "anycast: %s -> [neutralizer-1; neutralizer-2], shared master key\n"
    (Net.Ipaddr.to_string world.Scenario.World.anycast)

let trace () =
  (* Run a short exchange and print AT&T's packet capture, with the
     adversary's own classification of each packet. *)
  let world = Scenario.World.create () in
  let client =
    Scenario.World.make_client world world.Scenario.World.ann_host
      ~seed:"trace" ()
  in
  Core.Client.send_to_name client ~name:"google.example" ~app:"web" "hello";
  Scenario.World.run world;
  print_endline
    "every packet AT&T observed (time, src -> dst, size, its own verdict):";
  List.iter
    (fun (o : Net.Observation.t) ->
      Printf.printf "  %8.3f ms  %-15s -> %-15s  %4dB  proto=%-3d  %s\n"
        (Int64.to_float o.observed_at *. 1e-6)
        (Net.Ipaddr.to_string o.src) (Net.Ipaddr.to_string o.dst) o.size
        o.protocol
        (Format.asprintf "%a" Discrimination.Classifier.pp_app_class
           (Discrimination.Classifier.classify o)))
    (Net.Trace.to_list world.Scenario.World.att_trace);
  let google = Scenario.World.site world "google" in
  Printf.printf "\npackets revealing google's address (%s): %d\n"
    (Net.Ipaddr.to_string google.Scenario.World.node.addr)
    (Scenario.World.observed_address_leaks world.Scenario.World.att_trace
       google.Scenario.World.node.addr)

let fig2 () =
  (* Re-enact Figure 2 packet by packet with real bytes: the key setup
     (packets 1-2) and a bidirectional data exchange (packets 3-6). *)
  let hex = Crypto.Bytes_util.to_hex in
  let ann = Net.Ipaddr.of_string "10.1.0.2" in
  let google = Net.Ipaddr.of_string "10.2.0.5" in
  let anycast = Net.Ipaddr.of_string "10.2.255.1" in
  let master = Core.Master_key.of_seed ~seed:"fig2-km" in
  let drbg = Crypto.Drbg.create ~seed:"fig2" in
  let rng n = Crypto.Drbg.generate drbg n in
  let line = String.make 72 '-' in
  let packet n dir note =
    Printf.printf "%s\npacket %d  %s\n  %s\n" line n dir note
  in

  (* 1: Ann -> neutralizer, one-time public key *)
  let onetime = Scenario.Keyring.onetime 3 in
  let pub_blob = Crypto.Rsa.public_to_string onetime.Crypto.Rsa.public in
  packet 1 "ann -> neutralizer (anycast)"
    "Key_setup_request carrying Ann's one-time 512-bit RSA key (e=3)";
  Printf.printf "  ip: %s -> %s   shim kind 0, pubkey blob %d bytes\n"
    (Net.Ipaddr.to_string ann) (Net.Ipaddr.to_string anycast)
    (String.length pub_blob);
  Printf.printf "  pubkey[0..15]: %s...\n" (hex (String.sub pub_blob 0 16));

  (* 2: neutralizer -> Ann, E_S(epoch, nonce, Ks) *)
  let shim2, (epoch, nonce, ks) =
    Option.get
      (Core.Datapath.key_setup_response ~master ~rng ~src:ann
         ~pubkey_blob:pub_blob)
  in
  packet 2 "neutralizer -> ann"
    "Key_setup_response: E_S(epoch || nonce || Ks); the box stored NOTHING";
  Printf.printf "  ip: %s -> %s   shim %d bytes (RSA-512 ciphertext inside)\n"
    (Net.Ipaddr.to_string anycast) (Net.Ipaddr.to_string ann)
    (String.length shim2);
  Printf.printf "  ann decrypts -> epoch=%d nonce=%s Ks=%s\n" epoch (hex nonce)
    (hex ks);
  Printf.printf "  (stateless check: CMAC(K_M, nonce||annIP) = %s)\n"
    (hex (Option.get (Core.Master_key.derive master ~epoch ~nonce ~src:ann)));

  (* 3: Ann -> neutralizer, first data packet *)
  let enc_addr, tag = Core.Datapath.blind ~ks ~epoch ~nonce google in
  let data3 =
    { Core.Shim.epoch; nonce; enc_addr; tag; key_request = true;
      from_customer = false; refresh = None }
  in
  let google_key = Scenario.Keyring.e2e 1 in
  let secret = rng 32 in
  let keys = Crypto.Seal.keys secret in
  let payload3 =
    Core.Session.initial_payload ~rng ~peer_key:google_key.Crypto.Rsa.public
      ~secret ~keys (Core.Session.plain "GET /")
  in
  let p3 =
    Net.Packet.make ~protocol:Net.Packet.Shim
      ~shim:(Core.Shim.encode (Core.Shim.Data data3))
      ~src:ann ~dst:anycast payload3
  in
  packet 3 "ann -> neutralizer (through AT&T)"
    "Data + key request; AT&T sees ONLY the fields below";
  Printf.printf "  ip: %s -> %s   dscp=0  %d bytes total\n"
    (Net.Ipaddr.to_string ann) (Net.Ipaddr.to_string anycast)
    (Net.Packet.size p3);
  Printf.printf "  shim: epoch=%d nonce=%s enc_dst=%s tag=%s keyreq=1\n" epoch
    (hex nonce) (hex enc_addr) (hex tag);
  Printf.printf "  payload: %d bytes of end-to-end ciphertext\n"
    (String.length payload3);
  Printf.printf "  (google's address %s is nowhere in those bytes)\n"
    (Net.Ipaddr.to_string google);

  (* 4: neutralizer -> google *)
  (match Core.Datapath.forward_outside_data ~master ~rng ~self:anycast p3 data3 with
   | Core.Datapath.Rejected r -> failwith r
   | Core.Datapath.Forwarded p4 ->
     packet 4 "neutralizer -> google (inside Cogent)"
       "destination unblinded; a fresh grant (nonce', Ks') stamped in";
     Printf.printf "  ip: %s -> %s\n" (Net.Ipaddr.to_string p4.src)
       (Net.Ipaddr.to_string p4.dst);
     (match Option.map Core.Shim.decode p4.shim with
      | Some (Some (Core.Shim.Data { refresh = Some r; _ })) ->
        Printf.printf "  refresh stamp: epoch'=%d nonce'=%s Ks'=%s\n" r.r_epoch
          (hex r.r_nonce) (hex r.r_key);
        (* 5: google -> neutralizer *)
        let reply_inner =
          { Core.Session.refresh = Some r; reverse_key = None; app = "200 OK" }
        in
        let g_sessions = Core.Session.create_table () in
        let secret', keys', _ =
          Option.get (Core.Session.accept_initial ~private_key:google_key payload3)
        in
        let g_session =
          Core.Session.register g_sessions ~secret:secret' ~keys:keys' ~peer:ann
            ~now:0L
        in
        let payload5 = Core.Session.data_payload ~rng g_session reply_inner in
        let p5 =
          Net.Packet.make ~protocol:Net.Packet.Shim
            ~shim:(Core.Shim.encode (Core.Shim.Return { epoch; nonce; initiator = ann }))
            ~src:google ~dst:anycast payload5
        in
        packet 5 "google -> neutralizer (inside Cogent)"
          "Return: initiator + forward nonce in clear; refresh echoed under e2e";
        Printf.printf "  ip: %s -> %s   shim: nonce=%s initiator=%s\n"
          (Net.Ipaddr.to_string google) (Net.Ipaddr.to_string anycast)
          (hex nonce) (Net.Ipaddr.to_string ann);
        (* 6: neutralizer -> ann *)
        (match
           Core.Datapath.forward_return_data ~master ~self:anycast p5 ~epoch
             ~nonce ~initiator:ann
         with
         | Core.Datapath.Rejected r -> failwith r
         | Core.Datapath.Forwarded p6 ->
           packet 6 "neutralizer -> ann (through AT&T)"
             "source swapped to anycast; google's address blinded under Ks";
           Printf.printf "  ip: %s -> %s\n" (Net.Ipaddr.to_string p6.src)
             (Net.Ipaddr.to_string p6.dst);
           (match Option.map Core.Shim.decode p6.shim with
            | Some (Some (Core.Shim.Data d6)) ->
              Printf.printf "  shim: nonce=%s enc_src=%s tag=%s\n" (hex d6.nonce)
                (hex d6.enc_addr) (hex d6.tag);
              let peer =
                Option.get
                  (Core.Datapath.unblind ~ks ~epoch ~nonce
                     ~enc_addr:d6.enc_addr ~tag:d6.tag)
              in
              Printf.printf
                "  ann unblinds with Ks -> %s; locates the session; reads %S\n"
                (Net.Ipaddr.to_string peer)
                (let a_sessions = Core.Session.create_table () in
                 let _ =
                   Core.Session.register a_sessions ~secret ~keys ~peer ~now:0L
                 in
                 match Core.Session.open_data a_sessions ~now:0L p6.payload with
                 | Some (_, inner) -> inner.Core.Session.app
                 | None -> "<failed>");
              Printf.printf
                "  the echoed refresh retires the weak one-time key: 2 RTTs of exposure.\n"
            | _ -> failwith "bad packet 6"))
      | _ -> failwith "no refresh stamped"));
  print_endline line

(* `netneutral chaos`: run a fault plan (from a file, or the default
   neutralizer-1 flap) against the Figure-1 world with a steady flow,
   and print the recovery histogram straight from the obs registry. *)
let run_chaos quick seed plan_file corrupt =
  let plan =
    match plan_file with
    | None -> Experiments.E12_chaos.default_plan
    | Some file ->
      let text =
        match open_in file with
        | exception Sys_error msg ->
          Printf.eprintf "netneutral: cannot read plan: %s\n" msg;
          exit 1
        | ic ->
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
      in
      (match Fault.Plan.parse text with
       | Ok plan -> plan
       | Error msg ->
         Printf.eprintf "netneutral: bad fault plan %s: %s\n" file msg;
         exit 1)
  in
  let r =
    (* A plan can be well-formed yet name nodes the Fig. 1 world does
       not have; E12 rejects it when scheduling. *)
    match
      Experiments.E12_chaos.run ?seed ~plan ~corrupt
        ~duration_s:(if quick then 10.0 else 30.0)
        ()
    with
    | r -> r
    | exception Invalid_argument msg ->
      Printf.eprintf "netneutral: %s\n" msg;
      exit 1
  in
  Experiments.E12_chaos.print r;
  Experiments.Table.print_obs ~title:"chaos: client failure handling"
    ~prefixes:[ "core.client." ]
    ()

(* `netneutral overload`: the E13 load sweep with explicit control over
   seed and chaos composition. *)
let run_overload quick seed chaos =
  Experiments.E13_overload.(print (run ?seed ~chaos ~quick ()))

(* Multicore sweeps measured on a single-core host silently read as
   "no speedup"; say so out loud instead of letting the JSON mislead. *)
let warn_single_core what =
  if Par.recommended () <= 1 then
    Printf.eprintf
      "netneutral: warning: single-core host (Par.recommended = 1); %s \
       speedups cannot exceed 1x here and measure coordination overhead, \
       not scaling. The equivalence digests are still binding.\n%!"
      what

(* `netneutral pdes`: the sharded-engine scaling sweep — events/s and
   shard-count-equivalence digests at shard counts 1/2/4, written as
   BENCH_pdes.json. A digest divergence is a failed run. *)
let run_pdes quick out =
  warn_single_core "sharded-engine";
  let r =
    if quick then Experiments.Pdes_scaling.run ~tokens:32 ~hops:200 ()
    else Experiments.Pdes_scaling.run ()
  in
  Experiments.Pdes_scaling.print r;
  if not r.Experiments.Pdes_scaling.equivalent then begin
    Printf.eprintf
      "netneutral: sharded engine diverged from the sequential reference\n";
    exit 1
  end;
  write_json "pdes results" out (Experiments.Pdes_scaling.to_json r)

(* `netneutral scale`: the E14 fluid-aggregate capstone — equivalence
   gate, cross-shard digest gate, then the million-client run on a
   generated AS-scale topology, written as BENCH_scale.json. Any gate
   failure exits 1. *)
let run_scale quick out =
  warn_single_core "hybrid-tier";
  let r =
    if quick then
      Experiments.E14_scale.run ~domains:40 ~cohorts:80 ~clients_per_cohort:250
        ~steps:30 ()
    else Experiments.E14_scale.run ()
  in
  Experiments.E14_scale.print r;
  if not r.Experiments.E14_scale.ok then begin
    Printf.eprintf
      "netneutral: scale gates failed (equivalence %B, shard invariance %B)\n"
      r.Experiments.E14_scale.eq_ok r.Experiments.E14_scale.inv_ok;
    exit 1
  end;
  write_json "scale results" out (Experiments.E14_scale.to_json r)

(* `netneutral fuzzpolicy`: the E15 differential policy fuzzer — sweep
   seeded DSL-generated discrimination regimes through the compiled
   classifier tables (vs the reference interpreter) and through paired
   exposed-vs-neutralized Fig. 1 worlds with epoch-consistent
   mid-window swaps. Any neutralization invariant violation exits 1,
   with the failing regime and its replay recipe printed. *)
let run_fuzzpolicy quick seed regimes windows out =
  let seed =
    match seed with
    | Some s -> s
    | None -> (
        match Sys.getenv_opt "POLICY_SEED" with
        | Some s -> (
            match int_of_string_opt s with
            | Some s -> s
            | None ->
              Printf.eprintf "netneutral: bad POLICY_SEED %S\n" s;
              exit 1)
        | None -> 2006)
  in
  Printf.printf "fuzzpolicy: POLICY_SEED %d\n" seed;
  let r =
    if quick then
      Experiments.E15_regime_sweep.run ~seed
        ~regimes:(Option.value regimes ~default:150)
        ~e2e_windows:(Option.value windows ~default:24)
        ()
    else
      Experiments.E15_regime_sweep.run ~seed
        ?regimes ?e2e_windows:windows ()
  in
  Experiments.E15_regime_sweep.print r;
  if not r.Experiments.E15_regime_sweep.ok then begin
    List.iter
      (fun (v : Experiments.E15_regime_sweep.violation) ->
        Printf.eprintf "fuzzpolicy: regime %d [%s]: %s\n" v.v_regime v.v_kind
          v.v_detail)
      r.Experiments.E15_regime_sweep.violations;
    Printf.eprintf
      "netneutral: fuzzpolicy found %d violation(s); replay with \
       POLICY_SEED=%d netneutral fuzzpolicy%s\n"
      (List.length r.Experiments.E15_regime_sweep.violations)
      seed
      (if quick then " --quick" else "");
    exit 1
  end;
  write_json "fuzz results" out (Experiments.E15_regime_sweep.to_json r)

(* `netneutral vectors`: regenerate or verify the golden wire vectors.
   Verification is a byte compare against Core.Vectors.render — any
   drift (a frame whose encoding moved) exits 1, which is how CI and
   the @proto alias keep the wire format honest. *)
let run_vectors write dir =
  (match Core.Vectors.self_check () with
   | Ok () -> ()
   | Error msg ->
     Printf.eprintf "netneutral: vector corpus is self-inconsistent: %s\n" msg;
     exit 1);
  let path = Filename.concat dir Core.Vectors.file_name in
  let body = Core.Vectors.render () in
  if write then begin
    (match Sys.is_directory dir with
     | true -> ()
     | false | (exception Sys_error _) ->
       Printf.eprintf "netneutral: %s is not a directory\n" dir;
       exit 1);
    let oc = open_out_bin path in
    output_string oc body;
    close_out oc;
    Printf.printf "wrote %d vectors to %s\n"
      (List.length (String.split_on_char '\n' body) - 1)
      path
  end
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg ->
      Printf.eprintf "netneutral: cannot read %s: %s\n" path msg;
      exit 1
    | on_disk when on_disk = body -> Printf.printf "%s: ok\n" path
    | on_disk ->
      let disk_lines = String.split_on_char '\n' on_disk in
      let fresh_lines = String.split_on_char '\n' body in
      let rec first_drift i = function
        | d :: ds, f :: fs ->
          if d = f then first_drift (i + 1) (ds, fs)
          else Printf.eprintf "  line %d:\n    on disk:  %s\n    expected: %s\n" i d f
        | [], f :: _ -> Printf.eprintf "  line %d missing on disk: %s\n" i f
        | d :: _, [] -> Printf.eprintf "  line %d extra on disk: %s\n" i d
        | [], [] -> ()
      in
      Printf.eprintf "netneutral: %s drifted from the codec\n" path;
      first_drift 1 (disk_lines, fresh_lines);
      Printf.eprintf
        "  (a deliberate wire change needs a version bump and `netneutral \
         vectors --write`)\n";
      exit 1

let experiments =
  [ ("e1", "key-setup throughput (paper section 4)", run_e1);
    ("e2", "data-path vs vanilla forwarding throughput", run_e2);
    ("e3", "raw crypto operation rates", run_e3);
    ("e4", "resource comparison with onion routing (section 5)", run_e4);
    ("e5", "VoIP discrimination and DSCP tiering", run_e5);
    ("e6", "key-setup flood and pushback defense", run_e6);
    ("e7", "multi-homed neutralizer selection and failover", run_e7);
    ("e8", "market model of the section-1 hypothesis", run_e8);
    ("e9", "traffic analysis vs adaptive masking (extension)", run_e9);
    ("e10", "Glasnost-style discrimination detection (extension)", run_e10);
    ("e11", "3.6's residual vectors lose selectivity (extension)", run_e11);
    ("e12", "chaos: nearest neutralizer killed mid-flow (robustness)", run_e12);
    ("e13", "overload: admission control + retry budgets vs collapse", run_e13);
    ("ablations", "design-choice ablations A1-A4", run_ablations);
    ("all", "every experiment in order", run_all)
  ]

let () =
  let open Cmdliner in
  let with_metrics f quick metrics =
    f quick;
    write_metrics metrics
  in
  let exp_cmds =
    List.map
      (fun (name, doc, f) ->
        Cmd.v (Cmd.info name ~doc)
          Term.(const (with_metrics f) $ quick_flag $ metrics_opt))
      experiments
  in
  let stats_cmd =
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           "Run a short neutralized exchange and print/export the obs \
            metric registry")
      Term.(const run_stats $ metrics_opt)
  in
  let demo_cmd =
    Cmd.v
      (Cmd.info "demo" ~doc:"Narrated end-to-end exchange on the Fig. 1 world")
      Term.(const demo $ const ())
  in
  let topology_cmd =
    Cmd.v
      (Cmd.info "topology" ~doc:"Print the Figure-1 world")
      Term.(const topology $ const ())
  in
  let fig2_cmd =
    Cmd.v
      (Cmd.info "fig2"
         ~doc:"Re-enact Figure 2 of the paper, packet by packet, with real bytes")
      Term.(const fig2 $ const ())
  in
  let trace_cmd =
    Cmd.v
      (Cmd.info "trace"
         ~doc:"Dump AT&T's packet capture of one neutralized exchange")
      Term.(const trace $ const ())
  in
  let chaos_cmd =
    let seed_opt =
      let doc =
        "Fault-injection seed. Identical seeds reproduce the fault \
         timeline exactly; defaults to $(b,FAULT_SEED), then 1."
      in
      Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)
    in
    let plan_opt =
      let doc =
        "Fault plan file (one directive per line: 'at <s> \
         node_crash|node_restart|link_down|link_up|partition|heal ...' \
         or 'flap <node> <mean-up-s> <mean-down-s>'). Defaults to \
         flapping neutralizer-1."
      in
      Arg.(
        value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
    in
    let corrupt_opt =
      let doc =
        "Per-packet bit-flip probability on every link (e.g. 0.001). \
         Mangled frames are dropped-and-counted by the strict shim \
         decoders (core.proto.reject.*), never crashes."
      in
      Arg.(
        value & opt float 0.0 & info [ "corrupt" ] ~docv:"PROB" ~doc)
    in
    Cmd.v
      (Cmd.info "chaos"
         ~doc:
           "Seeded fault injection against the Fig. 1 world: run a fault \
            plan under a steady flow and print recovery-time statistics")
      Term.(const run_chaos $ quick_flag $ seed_opt $ plan_opt $ corrupt_opt)
  in
  let pdes_cmd =
    let out_opt =
      let doc = "Write the JSON results to $(docv)." in
      Arg.(
        value & opt string "BENCH_pdes.json"
        & info [ "out" ] ~docv:"FILE" ~doc)
    in
    Cmd.v
      (Cmd.info "pdes"
         ~doc:
           "Sharded-engine scaling sweep: a token workload on a ring \
            topology at shard counts 1/2/4 with conservative lookahead, \
            with shard-count-equivalence digests (any divergence from \
            the sequential engine fails the run)")
      Term.(const run_pdes $ quick_flag $ out_opt)
  in
  let scale_cmd =
    let out_opt =
      let doc = "Write the JSON results to $(docv)." in
      Arg.(
        value & opt string "BENCH_scale.json"
        & info [ "out" ] ~docv:"FILE" ~doc)
    in
    Cmd.v
      (Cmd.info "scale"
         ~doc:
           "E14 fluid-aggregate capstone: small-topology fluid vs \
            per-packet equivalence, bit-identical cohort digests across \
            shard counts, then a million-client hybrid run on a generated \
            AS-scale topology (events/s, wall-clock, neutralizer goodput); \
            any gate failure exits 1")
      Term.(const run_scale $ quick_flag $ out_opt)
  in
  let overload_cmd =
    let seed_opt =
      let doc =
        "Overload seed. Identical seeds reproduce the sweep exactly, \
         byte for byte; defaults to $(b,OVERLOAD_SEED), then 1."
      in
      Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)
    in
    let chaos_flag =
      let doc =
        "Crash and restart the neutralizer mid-sweep (composes the \
         overload machinery with lib/fault)."
      in
      Arg.(value & flag & info [ "chaos" ] ~doc)
    in
    Cmd.v
      (Cmd.info "overload"
         ~doc:
           "E13 graceful-degradation sweep: offered load 0.5x-10x box \
            capacity, admission control + retry budgets ON vs OFF")
      Term.(const run_overload $ quick_flag $ seed_opt $ chaos_flag)
  in
  let fuzzpolicy_cmd =
    let seed_opt =
      let doc =
        "Policy-fuzzer seed. Identical seeds reproduce every generated \
         regime, observation and window exactly; defaults to \
         $(b,POLICY_SEED), then 2006."
      in
      Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"N" ~doc)
    in
    let regimes_opt =
      let doc = "Number of generated regimes in the semantic tier." in
      Arg.(value & opt (some int) None & info [ "regimes" ] ~docv:"N" ~doc)
    in
    let windows_opt =
      let doc = "Number of end-to-end policy windows on the paired worlds." in
      Arg.(value & opt (some int) None & info [ "windows" ] ~docv:"N" ~doc)
    in
    let out_opt =
      let doc = "Write the JSON results to $(docv)." in
      Arg.(
        value & opt string "BENCH_dsl.json" & info [ "out" ] ~docv:"FILE" ~doc)
    in
    Cmd.v
      (Cmd.info "fuzzpolicy"
         ~doc:
           "E15 differential policy fuzzer: sweep seeded DSL-generated \
            discrimination regimes through compiled classifier tables \
            (vs the reference interpreter, byte for byte) and through \
            paired exposed-vs-neutralized Fig. 1 worlds with \
            epoch-consistent mid-window policy swaps; any \
            neutralization-invariant violation exits 1 with the failing \
            seed printed")
      Term.(
        const run_fuzzpolicy $ quick_flag $ seed_opt $ regimes_opt
        $ windows_opt $ out_opt)
  in
  let vectors_cmd =
    let write_flag =
      let doc = "Regenerate the vector file instead of verifying it." in
      Arg.(value & flag & info [ "write" ] ~doc)
    in
    let dir_opt =
      let doc = "Directory holding the vector file." in
      Arg.(
        value
        & opt string "test/vectors"
        & info [ "dir" ] ~docv:"DIR" ~doc)
    in
    Cmd.v
      (Cmd.info "vectors"
         ~doc:
           "Verify (default) or regenerate ($(b,--write)) the golden shim \
            wire vectors in test/vectors/; verification exits 1 on any \
            byte drift from the codec")
      Term.(const run_vectors $ write_flag $ dir_opt)
  in
  (* `netneutral --metrics out.json` with no subcommand is the quickest
     way to get a measured run: silent workload, JSON out. *)
  let default =
    Term.(
      ret
        (const (function
           | Some _ as metrics ->
             metrics_workload ();
             write_metrics metrics;
             `Ok ()
           | None -> `Help (`Pager, None))
         $ metrics_opt))
  in
  let info =
    Cmd.info "netneutral" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'A Technical Approach to Net Neutrality' (HotNets-V \
         2006)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          (demo_cmd :: topology_cmd :: trace_cmd :: fig2_cmd :: stats_cmd
           :: chaos_cmd :: overload_cmd :: pdes_cmd
           :: scale_cmd :: fuzzpolicy_cmd :: vectors_cmd :: exp_cmds)))
