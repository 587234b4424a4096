(* Mutation fuzzing of the protocol pipeline.

   Capture real wire packets from a working exchange, then re-inject
   randomly mutated copies — flipped bits, truncations, duplicated and
   spliced field regions — at the neutralizer box and at both end hosts.
   The invariant under test is crash-freedom plus fail-safety: a mutated
   packet must never be delivered as valid application data, never crash
   a handler, and never corrupt subsequent legitimate traffic.

   Determinism: every Random.State in this file derives from one root
   seed, printed at startup. The default root (0xf00d) makes the suite
   fully reproducible run to run; to explore a different corner of the
   mutation space, or to replay a CI failure, set the FUZZ_SEED
   environment variable to the printed integer, e.g.

     FUZZ_SEED=12345 dune exec test/test_fuzz.exe

   Per-test states are derived as hash(root, label), so adding or
   reordering tests does not shift the streams of the others. *)

let root_seed =
  match Sys.getenv_opt "FUZZ_SEED" with
  | Some s ->
    (try int_of_string s
     with Failure _ ->
       Printf.ksprintf failwith "FUZZ_SEED must be an integer, got %S" s)
  | None -> 0xf00d

let () = Printf.printf "fuzz root seed: %d (override with FUZZ_SEED)\n%!" root_seed

let state_for label =
  Random.State.make [| root_seed; Hashtbl.hash label |]

let mutate st bytes =
  let b = Bytes.of_string bytes in
  let len = Bytes.length b in
  if len = 0 then bytes
  else begin
    (match Random.State.int st 4 with
     | 0 ->
       (* flip a random bit *)
       let i = Random.State.int st len in
       Bytes.set b i
         (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int st 8)))
     | 1 ->
       (* zero a random run *)
       let i = Random.State.int st len in
       let n = min (len - i) (1 + Random.State.int st 8) in
       Bytes.fill b i n '\x00'
     | 2 ->
       (* swap two regions *)
       let i = Random.State.int st len and j = Random.State.int st len in
       let tmp = Bytes.get b i in
       Bytes.set b i (Bytes.get b j);
       Bytes.set b j tmp
     | _ ->
       (* random byte *)
       let i = Random.State.int st len in
       Bytes.set b i (Char.chr (Random.State.int st 256)));
    Bytes.to_string b
  end

let maybe_truncate st bytes =
  let len = String.length bytes in
  if len > 1 && Random.State.int st 4 = 0 then
    String.sub bytes 0 (1 + Random.State.int st (len - 1))
  else bytes

let test_fuzz_pipeline () =
  let w = Scenario.World.create () in
  let client =
    Scenario.World.make_client w w.Scenario.World.ann_host ~seed:"fuzz" ()
  in
  let legit = ref 0 in
  let bogus_to_client = ref 0 in
  Core.Client.set_receiver client (fun ~peer:_ msg ->
      if msg = "re:warmup-1" || msg = "re:final-check" then incr legit
      else incr bogus_to_client);
  (* capture everything AT&T can see of a warm-up exchange *)
  let captured = ref [] in
  Net.Network.add_tap w.Scenario.World.net w.Scenario.World.att (fun o ->
      if o.Net.Observation.protocol = 253 then captured := o :: !captured);
  Core.Client.send_to_name client ~name:"google.example" "warmup-1";
  Scenario.World.run w;
  Alcotest.(check int) "warmup delivered" 1 !legit;
  let samples = !captured in
  Alcotest.(check bool) "captured material" true (List.length samples > 3);
  (* attacker host re-injects mutated copies of every captured packet *)
  let mallory_node =
    Net.Topology.add_node w.Scenario.World.topo ~domain:w.Scenario.World.att
      ~kind:Net.Topology.Host ~name:"fuzzer"
  in
  Net.Topology.add_link w.Scenario.World.topo mallory_node.nid
    w.Scenario.World.att_router.nid ~bandwidth_bps:1_000_000_000
    ~latency:1_000_000L ();
  Net.Network.recompute_routes w.Scenario.World.net;
  let mallory = Net.Host.attach w.Scenario.World.net mallory_node in
  let st = state_for "fuzz-pipeline" in
  let google = Scenario.World.site w "google" in
  let google_bogus = ref 0 in
  Core.Server.set_responder google.Scenario.World.server (fun srv ~peer msg ->
      if msg <> "warmup-1" && msg <> "final-check" then incr google_bogus
      else Core.Server.reply srv ~session:peer ("re:" ^ msg));
  List.iter
    (fun (o : Net.Observation.t) ->
      for _ = 1 to 40 do
        let shim = Option.map (mutate st) o.shim in
        let shim = Option.map (maybe_truncate st) shim in
        let payload = maybe_truncate st (mutate st o.payload) in
        (* vary the destination: the box, Ann, or Google directly *)
        let dst =
          match Random.State.int st 3 with
          | 0 -> o.dst
          | 1 -> w.Scenario.World.ann.addr
          | _ -> google.Scenario.World.node.addr
        in
        Net.Host.send mallory
          (Net.Packet.make ~protocol:Net.Packet.Shim ?shim ~src:o.src ~dst
             payload)
      done)
    samples;
  Scenario.World.run w;
  (* no mutated packet may surface as application data (replays of the
     legitimate packet may duplicate it — the documented limitation —
     but mutated contents must never appear) *)
  Alcotest.(check int) "client saw no forged data" 0 !bogus_to_client;
  Alcotest.(check int) "google saw no forged data" 0 !google_bogus;
  (* and the system still works afterwards *)
  let before = !legit in
  Core.Client.send_to_name client ~name:"google.example" "final-check";
  Scenario.World.run w;
  Alcotest.(check bool) "exchange still healthy" true (!legit > before)

let test_fuzz_shim_decoder_total () =
  (* the decoder must be total over arbitrary bytes *)
  let st = state_for "shim-decoder" in
  for _ = 1 to 20_000 do
    let len = Random.State.int st 80 in
    let junk = String.init len (fun _ -> Char.chr (Random.State.int st 256)) in
    match Core.Shim.decode junk with Some _ | None -> ()
  done

let test_fuzz_session_openers_total () =
  let st = state_for "session-openers" in
  let key = Scenario.Keyring.e2e 5 in
  let table = Core.Session.create_table () in
  for _ = 1 to 2_000 do
    let len = Random.State.int st 200 in
    let junk = String.init len (fun _ -> Char.chr (Random.State.int st 256)) in
    (match Core.Session.accept_initial ~private_key:key junk with
     | Some _ -> Alcotest.fail "accepted junk as initial payload"
     | None -> ());
    match Core.Session.open_data table ~now:0L junk with
    | Some _ -> Alcotest.fail "opened junk as session data"
    | None -> ()
  done

let test_rotation_scheduler () =
  let w = Scenario.World.create () in
  let master = w.Scenario.World.master in
  let e0 = Core.Master_key.current_epoch master in
  (* The operator's schedule: one rotation per simulated second, three
     in all. *)
  for k = 1 to 3 do
    ignore
      (Net.Engine.schedule_s w.Scenario.World.engine ~delay_s:(float_of_int k)
         (fun () -> Core.Master_key.rotate master))
  done;
  let client =
    Scenario.World.make_client w w.Scenario.World.ann_host ~seed:"rotd" ()
  in
  let got = ref 0 in
  Core.Client.set_receiver client (fun ~peer:_ _ -> incr got);
  (* Exchanges straddling several rotations. The grace epoch covers one
     rotation; when a grant dies (two rotations since setup), the box's
     Stale_grant notice makes the client re-key — the packet that
     discovered the staleness is lost (datagram semantics), everything
     after flows again. *)
  for i = 0 to 5 do
    ignore
      (Net.Engine.schedule_s w.Scenario.World.engine
         ~delay_s:(0.4 +. (0.45 *. float_of_int i))
         (fun () ->
           Core.Client.send_to_name client ~name:"google.example"
             (string_of_int i)))
  done;
  Scenario.World.run w;
  Alcotest.(check bool) "at most one edge loss"
    true (!got >= 5);
  Alcotest.(check bool) "re-keyed after stale notice" true
    ((Core.Client.counters client).key_setups_completed >= 2);
  Alcotest.(check int) "rotations happened" (e0 + 3)
    (Core.Master_key.current_epoch master)

let () =
  Alcotest.run "fuzz"
    [ ( "mutation",
        [ Alcotest.test_case "pipeline survives mutants" `Quick
            test_fuzz_pipeline;
          Alcotest.test_case "shim decoder total" `Quick
            test_fuzz_shim_decoder_total;
          Alcotest.test_case "session openers total" `Quick
            test_fuzz_session_openers_total
        ] );
      ( "rotation",
        [ Alcotest.test_case "scheduled rotation" `Quick
            test_rotation_scheduler
        ] )
    ]
