(* The benchmark executable, driven by perfbench/run.py:

     bench.exe setup --workload W --seed N
     bench.exe run --workload W --seed N --seconds T --trace 0|1
                   --nproc P --out DIR

   [setup] builds the workload and prints how long that took; run.py
   repeats it in fresh processes, because every fresh process pays
   first-use key generation. [run] sets up and measures. With --trace 0
   one untraced phase of T seconds gives the end-to-end metrics. With
   --trace 1 an untraced and a traced phase of 0.3 T each, then the
   layer probes, give the per-layer metrics. The last stdout line is one
   JSON object: the metrics, the output digest and every failed output
   check. *)

type workload =
  | Steady of Fig1.Steady.t
  | Churn of Fig1.Churn.t
  | Scale of Scale.t

type args = {
  mode : string;
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  nproc : int;
  out : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe (setup|run) --workload W --seed N [--seconds T] \
     [--trace 0|1] [--nproc P] [--out DIR]";
  exit 2

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = v = "1" } rest
    | "--nproc" :: v :: rest -> go { a with nproc = int_of_string v } rest
    | "--out" :: v :: rest -> go { a with out = v } rest
    | [] -> a
    | _ -> usage ()
  in
  match argv with
  | _ :: (("setup" | "run") as mode) :: rest ->
    go
      { mode;
        workload = "";
        seed = 1;
        seconds = 10.0;
        trace = false;
        nproc = 1;
        out = "."
      }
      rest
  | _ -> usage ()

(* as-scale runs its engine rounds on a pool of at most nproc domains. *)
let pool_size a = max 1 (min Scale.shards a.nproc)

let setup a =
  let t0 = Clock.now () in
  let build () =
    match a.workload with
    | "fig1-steady" -> Steady (Fig1.Steady.setup ~seed:a.seed)
    | "fig1-churn" -> Churn (Fig1.Churn.setup ~seed:a.seed)
    | "as-scale" -> Scale (Scale.build ~seed:a.seed)
    | w ->
      prerr_endline ("bench.exe: unknown workload " ^ w);
      exit 2
  in
  let wl =
    if a.trace then Spans.with_span Spans.Setup ~flow:(-1) build else build ()
  in
  (wl, Clock.to_s (Clock.now () - t0))

let phase wl ~pool ~traced ~deadline =
  match (wl, pool) with
  | Steady s, _ -> Fig1.Steady.phase s ~traced ~deadline
  | Churn c, _ -> Fig1.Churn.phase c ~traced ~deadline
  | Scale s, Some pool -> Scale.phase s ~pool ~traced ~deadline
  | Scale _, None -> invalid_arg "as-scale runs on a pool"

let digest = function
  | Steady s -> Fig1.Steady.digest s
  | Churn c -> Fig1.Churn.digest c
  | Scale s -> Scale.digest s

let end_to_end ~setup_s (ph : Phase.t) =
  let ops_per_s = Phase.ops_per_s ph in
  let op_p50_ms = Stats.percentile 50.0 ph.lat_ms in
  (* The benchmark's own sample buffers grow with the run and would
     dominate the live heap. *)
  Stats.release ph.lat_ms;
  Stats.release ph.pending;
  Stats.release ph.rates;
  let live_heap_mb = Snap.live_heap_mb () in
  [ ("setup_s", setup_s);
    ("ops_per_s", ops_per_s);
    ("op_p50_ms", op_p50_ms);
    ( "ok_frac",
      1.0 -. (float_of_int ph.failed /. float_of_int (max 1 ph.attempted)) );
    ("live_heap_mb", live_heap_mb)
  ]

(* Where the Figure-1 probes take their inputs. as-scale has no
   Figure-1 world, so it runs one traced fig1-steady batch and takes the
   client and server self times from it as well. *)
let fig1_source a = function
  | Steady s -> (Fig1.Steady.probe_source s, None)
  | Churn c -> (Fig1.Churn.probe_source c, None)
  | Scale _ ->
    let s = Fig1.Steady.setup ~seed:a.seed in
    Spans.clear ();
    ignore (Fig1.Steady.phase s ~traced:true ~deadline:0 : Phase.t);
    let capture = Spans.summarize () in
    Spans.clear ();
    (Fig1.Steady.probe_source s, Some capture)

(* Round metrics need a sharded engine. The Figure-1 engine has one
   shard, so the fig1 workloads take them from a short as-scale run,
   which also feeds the topology probes. *)
let scale_source a wl (untraced : Phase.t) =
  match wl with
  | Scale s -> (s, untraced)
  | Steady _ | Churn _ ->
    Par.with_pool ~size:(pool_size a) (fun pool ->
        let s = Scale.build ~seed:a.seed in
        (s, Scale.phase s ~pool ~traced:false ~deadline:0))

let per_layer a wl ~(untraced : Phase.t) ~(traced : Phase.t) ~s0 ~s1 ~summary
    ~verdicts =
  let f = float_of_int in
  let ops = f (max 1 traced.ops) in
  let per n = f n /. ops in
  let d = Snap.delta s0 s1 in
  (* About twenty timed probes share 0.4 x --seconds. *)
  let budget_ns = int_of_float (a.seconds *. 0.4e9 /. 20.0) in
  let (world, client, dest), capture = fig1_source a wl in
  let probes =
    Probes.crypto_and_core ~budget_ns (Probes.fig1_inputs world client ~dest)
  in
  let p name = List.assoc name probes in
  let population = int_of_float (Stats.median untraced.pending) in
  let dispatch_ns = Probes.dispatch_ns ~budget_ns ~population in
  let scale, rounds = scale_source a wl untraced in
  let selves = Option.value ~default:summary capture in
  let self_us name = Spans.self_ns selves name /. 1e3 in
  let setups = d "core.neutralizer.key_setups" in
  let enc = d "crypto.rsa.encrypts" and dec = d "crypto.rsa.decrypts" in
  let signs = d "crypto.rsa.signs" and verifies = d "crypto.rsa.verifies" in
  (* Each key setup costs the box one 512-bit encryption and its client
     one 512-bit decryption; the other RSA operations (DNS, session
     set-up) use 1024-bit keys. A signature costs a private-key
     operation, a verification a public-key one. *)
  let enc512 = min setups enc and dec512 = min setups dec in
  let blocks = d "crypto.aes.blocks_encrypted" + d "crypto.aes.blocks_decrypted" in
  let expansions = d "crypto.aes.key_expansions" in
  (* Each forwarded, returned or key-setup packet is encoded and decoded
     twice: by its sender and the box, then by the box and its
     receiver. *)
  let codec =
    2
    * (d "core.neutralizer.data_forwarded"
      + d "core.neutralizer.data_returned"
      + setups)
  in
  let verdict_ns =
    if verdicts = 0 then 0.0 else Spans.self_ns summary Spans.Dsl
  in
  let explained =
    (f blocks *. p "crypto.aes.block_ns")
    +. (f expansions *. p "crypto.aes.expand_ns")
    +. (1e3 *. f dec512 *. p "crypto.rsa.decrypt_512_us")
    +. (1e3 *. f (dec - dec512 + signs) *. p "crypto.rsa.decrypt_1024_us")
    +. (1e3 *. f enc512 *. p "crypto.rsa.encrypt_e3_us")
    +. (1e3 *. f (enc - enc512 + verifies) *. p "crypto.rsa.encrypt_e3_1024_us")
    +. (f traced.events *. dispatch_ns)
    +. (f codec *. (p "core.shim.encode_ns" +. p "core.shim.decode_strict_ns"))
    +. (f verdicts *. verdict_ns)
  in
  let measured = Phase.ns_per_op untraced in
  let sent = d "net.link.sent_packets" and dropped = d "net.link.dropped_packets" in
  let spill_pass_ratio =
    match wl with
    | Scale s -> Scale.spill_pass_ratio s
    | Steady _ | Churn _ -> 0.0
  in
  let nrounds = f (max 1 rounds.rounds) in
  probes
  @ Probes.scale_layer ~budget_ns scale
  @ [ ("op_p99_ms", Stats.percentile 99.0 untraced.lat_ms);
      ( "crypto.rsa.ops_per_op",
        per (enc + dec + signs + verifies + d "crypto.rsa.keygens") );
      ("crypto.rsa.decrypts_per_op", per dec);
      ("crypto.rsa.encrypts_per_op", per enc);
      ("crypto.rsa.signs_per_op", per signs);
      ("crypto.rsa.verifies_per_op", per verifies);
      ("crypto.aes.blocks_per_op", per blocks);
      ("crypto.aes.expansions_per_op", per expansions);
      ("core.datapath.grants_per_op", per (d "core.datapath.grants_issued"));
      ("core.client.send_self_us", self_us Spans.Send);
      ("core.server.reply_self_us", self_us Spans.Responder);
      ("core.neutralizer.key_setups_per_op", per setups);
      ("dsl.verdict_ns", verdict_ns);
      ("dsl.verdicts_per_op", per verdicts);
      ( "dsl.spill_verdicts_per_step",
        if traced.steps = 0 then 0.0 else f verdicts /. f traced.steps );
      ("net.engine.events_per_op", per traced.events);
      ( "net.engine.events_per_s",
        f untraced.events /. Clock.to_s (max 1 untraced.wall_ns) );
      ("net.engine.dispatch_ns", dispatch_ns);
      ("net.pqueue.churn_ns", Probes.pqueue_churn_ns ~budget_ns ~population);
      ("net.engine.pending", f population);
      ("net.engine.rounds", f rounds.rounds);
      ("net.engine.events_per_round", f rounds.events /. nrounds);
      ("net.engine.us_per_round", f rounds.wall_ns /. nrounds /. 1e3);
      ( "net.engine.run_self_ns_per_op",
        f (Spans.total_self_ns summary Spans.Engine_run) /. ops );
      ("net.link.sends_per_op", per sent);
      ("net.link.drop_frac", f dropped /. f (max 1 (sent + dropped)));
      ("net.aggregate.spill_pass_ratio", spill_pass_ratio);
      ( "gc.minor_words_per_op",
        (s1.Snap.minor_words -. s0.Snap.minor_words) /. ops );
      ( "gc.major_collections",
        f (s1.Snap.major_collections - s0.Snap.major_collections) );
      ("recon.explained_ns_per_op", explained /. ops);
      ("recon.measured_ns_per_op", measured);
      ("recon.unexplained_frac", 1.0 -. (explained /. ops /. measured));
      ("trace.overhead_frac", (Phase.ns_per_op traced /. measured) -. 1.0);
      ("trace.spans", f summary.Spans.spans)
    ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' | '\\' ->
        Buffer.add_char b '\\';
        Buffer.add_char b c
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json_object fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let run a =
  let epoch = Clock.now () in
  let body pool =
    let wl, setup_s = setup a in
    let deadline share =
      Clock.now () + int_of_float (share *. a.seconds *. 1e9)
    in
    let phases, metrics =
      if not a.trace then begin
        let ph = phase wl ~pool ~traced:false ~deadline:(deadline 1.0) in
        ([ ph ], fun () -> end_to_end ~setup_s ph)
      end
      else begin
        let untraced = phase wl ~pool ~traced:false ~deadline:(deadline 0.3) in
        let s0 = Snap.take () and v0 = Atomic.get Spans.verdicts in
        let traced = phase wl ~pool ~traced:true ~deadline:(deadline 0.3) in
        let s1 = Snap.take () and v1 = Atomic.get Spans.verdicts in
        let summary = Spans.summarize () in
        Spans.write
          (Filename.concat a.out
             (Printf.sprintf "spans-%s-seed%d.tsv" a.workload a.seed))
          ~epoch ~limit:200_000;
        Spans.clear ();
        ( [ untraced; traced ],
          fun () ->
            per_layer a wl ~untraced ~traced ~s0 ~s1 ~summary
              ~verdicts:(v1 - v0) )
      end
    in
    (* Checks over the whole measured run, before any probe runs. *)
    (match wl with
     | Steady _ ->
       let rehomes = Snap.count (Snap.take ()) "core.client.rehomes" in
       if rehomes > 0 then
         Phase.fail "fig1-steady: %d client re-homes (blackhole threshold)"
           rehomes
     | Churn _ | Scale _ -> ());
    let dg = digest wl in
    if dg = None then
      Phase.fail "%s: the digest scope did not complete" a.workload;
    (setup_s, phases, dg, metrics ())
  in
  let pool = if a.workload = "as-scale" then pool_size a else 1 in
  let setup_s, phases, dg, metrics =
    if a.workload = "as-scale" then
      Par.with_pool ~size:pool (fun p -> body (Some p))
    else body None
  in
  let sum field = List.fold_left (fun acc ph -> acc + field ph) 0 phases in
  print_endline
    (json_object
       [ ("workload", json_string a.workload);
         ("seed", string_of_int a.seed);
         ("nproc", string_of_int a.nproc);
         ("pool", string_of_int pool);
         ("setup_s", json_float setup_s);
         ("attempted", string_of_int (sum (fun ph -> ph.Phase.attempted)));
         ("failed", string_of_int (sum (fun ph -> ph.Phase.failed)));
         ("samples", string_of_int (Stats.length (List.hd phases).Phase.lat_ms));
         ("digest", match dg with Some d -> json_string d | None -> "null");
         ( "failures",
           "[" ^ String.concat ", " (List.rev_map json_string !Phase.failures) ^ "]"
         );
         ( "metrics",
           json_object (List.map (fun (k, v) -> (k, json_float v)) metrics) )
       ])

let () =
  let a = parse (Array.to_list Sys.argv) in
  if a.mode = "setup" then begin
    let _, setup_s = setup a in
    print_endline (json_object [ ("setup_s", json_float setup_s) ])
  end
  else run a
