(* The perf regression harness: before/after rates for every hot path
   the performance pass touched, measured in one process on one machine
   so the ratios are apples to apples. The "before" sides are live
   implementations — the binary exponentiation ladder (Nat.Montgomery's
   short-exponent path) and the stateless datapath transforms — so every
   run re-derives the speedups instead of trusting numbers recorded on
   some other box. *)

type row = { name : string; ops_per_sec : float; note : string }

type result = {
  min_time : float;
  rows : row list;
  windowed_vs_binary : float;
  session_vs_stateless : float;
  sim_events_per_s : float;
  pdes_events_per_s : float;
  counter_resolved_ns : float;
  counter_lookup_ns : float;
}

(* ---- one-time RSA keys: cold keygen ---- *)

let keygen_cold_op () =
  let st = Random.State.make [| 0x9e4f; 11 |] in
  fun () -> ignore (Crypto.Rsa.generate ~e:3 ~bits:512 st)

(* ---- Montgomery exponentiation: binary ladder vs fixed window ---- *)

let pow_mod_fixture () =
  let st = Random.State.make [| 0x512; 0xe |] in
  let m =
    let c = Bignum.Nat.add (Bignum.Nat.random ~bits:511 st)
        (Bignum.Nat.shift_left Bignum.Nat.one 511) in
    if Bignum.Nat.is_even c then Bignum.Nat.succ c else c
  in
  let ctx = Option.get (Bignum.Nat.Montgomery.create m) in
  let b = Bignum.Nat.random ~bits:512 st in
  let e = Bignum.Nat.random ~bits:512 st in
  (ctx, b, e)

let pow_mod_binary_op () =
  let ctx, b, e = pow_mod_fixture () in
  fun () -> ignore (Bignum.Nat.Montgomery.pow_mod_binary ctx b e)

let pow_mod_windowed_op () =
  let ctx, b, e = pow_mod_fixture () in
  fun () -> ignore (Bignum.Nat.Montgomery.pow_mod ctx b e)

(* ---- RSA-1024 private operation ---- *)

let rsa1024_decrypt_op () =
  let key = Scenario.Keyring.e2e 0 in
  let drbg = Crypto.Drbg.create ~seed:"perf-rsa" in
  let rng n = Crypto.Drbg.generate drbg n in
  let ct = Crypto.Rsa.encrypt key.Crypto.Rsa.public ~rng (rng 32) in
  fun () -> ignore (Crypto.Rsa.decrypt key ct)

(* ---- datapath: stateless transforms vs precomputed session ---- *)

let datapath_fixture () =
  let drbg = Crypto.Drbg.create ~seed:"perf-datapath" in
  let rng n = Crypto.Drbg.generate drbg n in
  let ks = rng Core.Protocol.key_len in
  let nonce = rng Core.Protocol.nonce_len in
  let dest = Net.Ipaddr.of_string "10.2.0.5" in
  (ks, nonce, dest)

let blind_stateless_op () =
  let ks, nonce, dest = datapath_fixture () in
  fun () -> ignore (Core.Datapath.blind ~ks ~epoch:7 ~nonce dest)

let blind_session_op () =
  let ks, nonce, dest = datapath_fixture () in
  let s = Core.Datapath.make_session ~ks ~epoch:7 ~nonce in
  fun () -> ignore (Core.Datapath.blind_session s dest)

let unblind_session_op () =
  let ks, nonce, dest = datapath_fixture () in
  let s = Core.Datapath.make_session ~ks ~epoch:7 ~nonce in
  let enc_addr, tag = Core.Datapath.blind_session s dest in
  fun () ->
    match Core.Datapath.unblind_session s ~enc_addr ~tag with
    | Some _ -> ()
    | None -> failwith "perf: unblind failed"

(* ---- event heap ---- *)

(* Churn at a constant population: one pseudo-random push plus one pop
   per op, over a heap preloaded with [population] entries. *)
let heap_population = 1023

let lcg seed =
  let s = ref seed in
  fun () ->
    s := (!s * 2685821657736338717) + 1442695040888963407;
    !s land 0x3fffffffffff

let heap_churn_op () =
  let q = Net.Pqueue.create ~capacity:(heap_population + 1) () in
  let next = lcg 42 in
  for i = 0 to heap_population - 1 do
    Net.Pqueue.push q (Int64.of_int (next ())) i ()
  done;
  let seq = ref heap_population in
  fun () ->
    Net.Pqueue.push q (Int64.of_int (next ())) !seq ();
    incr seq;
    ignore (Net.Pqueue.pop_min q)

(* ---- whole-engine event rate ---- *)

(* Schedule [n] no-op events at pseudo-random delays on a fresh engine
   and drain it; both the scheduling and the processing are timed. *)
let sim_events_per_s ~min_time =
  let n = 50_000 in
  let total_events = ref 0 in
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  while elapsed () < min_time do
    let engine =
      Net.Engine.create ~obs:(Obs.Registry.create ()) ~capacity:n ()
    in
    let next = lcg 7 in
    for _ = 1 to n do
      ignore (Net.Engine.schedule engine ~delay:(Int64.of_int (next ())) ignore)
    done;
    Net.Engine.run engine;
    total_events := !total_events + n
  done;
  float_of_int !total_events /. elapsed ()

(* ---- sharded-engine event rate ---- *)

(* The pdes token workload at 4 shards on a pool sized to the box,
   repeated until [min_time] has elapsed. Comparable to
   [sim_events_per_s]: same engine core, sharded and pooled. *)
let pdes_events_per_s ~min_time =
  let shards = 4 in
  Par.with_pool ~size:(min shards (Par.recommended ())) (fun pool ->
      let events = ref 0 and seconds = ref 0.0 in
      while !seconds < min_time do
        let w =
          Pdes_scaling.run_workload ~tokens:64 ~hops:400 ~shards
            ~pool:(Some pool) ()
        in
        events := !events + w.Pdes_scaling.events;
        seconds := !seconds +. w.Pdes_scaling.seconds
      done;
      float_of_int !events /. !seconds)

(* ---- obs counter increment cost ---- *)

(* Batch 100 increments per measured op so the measurement loop's own
   overhead does not swamp a nanosecond-scale operation. *)
let counter_batch = 100

let counter_resolved_op () =
  let reg = Obs.Registry.create () in
  let c = Obs.Registry.counter reg "perf.counter_resolved" in
  fun () ->
    for _ = 1 to counter_batch do
      Obs.Counter.inc c
    done

let counter_lookup_op () =
  let reg = Obs.Registry.create () in
  fun () ->
    for _ = 1 to counter_batch do
      Obs.Counter.inc (Obs.Registry.counter reg "perf.counter_lookup")
    done

(* ---- harness ---- *)

let run ?(min_time = 0.4) () =
  let mt = Some min_time in
  let m mk = Table.measure ?min_time:mt (mk ()) in
  let keygen_cold = m keygen_cold_op in
  let pow_binary = m pow_mod_binary_op in
  let pow_windowed = m pow_mod_windowed_op in
  let rsa1024_decrypt = m rsa1024_decrypt_op in
  let key_setup = m E1_key_setup.processing_op in
  let blind_stateless = m blind_stateless_op in
  let blind_session = m blind_session_op in
  let unblind_session = m unblind_session_op in
  let heap_churn = m heap_churn_op in
  let events = sim_events_per_s ~min_time in
  let pdes_events = pdes_events_per_s ~min_time in
  let ctr_resolved = m counter_resolved_op in
  let ctr_lookup = m counter_lookup_op in
  let ns_per_inc ops = 1e9 /. (ops *. float_of_int counter_batch) in
  { min_time;
    rows =
      [ { name = "rsa512-keygen-cold";
          ops_per_sec = keygen_cold;
          note = "one-time key generated inline, per key setup"
        };
        { name = "pow-mod-binary-512";
          ops_per_sec = pow_binary;
          note = "before: binary ladder (short-exponent path)"
        };
        { name = "pow-mod-windowed-512";
          ops_per_sec = pow_windowed;
          note = "after: fixed-window k=4 + squaring rounds"
        };
        { name = "rsa1024-crt-decrypt";
          ops_per_sec = rsa1024_decrypt;
          note = "private op; a fig1-churn flow pays three at 1024 bits"
        };
        { name = "key-setup-response";
          ops_per_sec = key_setup;
          note = "box side: RSA-512 e=3 encrypt + grant"
        };
        { name = "blind-stateless";
          ops_per_sec = blind_stateless;
          note = "before: key schedule + mask per packet"
        };
        { name = "blind-session";
          ops_per_sec = blind_session;
          note = "after: precomputed session"
        };
        { name = "unblind-session";
          ops_per_sec = unblind_session;
          note = "after: session verify + unmask"
        };
        { name = "pqueue-unboxed-churn";
          ops_per_sec = heap_churn;
          note = "engine event heap: parallel int arrays (push+pop @1023)"
        };
        { name = "counter-inc-resolved";
          ops_per_sec = ctr_resolved *. float_of_int counter_batch;
          note = "hot-path metric bump, pre-resolved"
        };
        { name = "counter-inc-lookup";
          ops_per_sec = ctr_lookup *. float_of_int counter_batch;
          note = "registry (name,labels) lookup per bump"
        }
      ];
    windowed_vs_binary = pow_windowed /. pow_binary;
    session_vs_stateless = blind_session /. blind_stateless;
    sim_events_per_s = events;
    pdes_events_per_s = pdes_events;
    counter_resolved_ns = ns_per_inc ctr_resolved;
    counter_lookup_ns = ns_per_inc ctr_lookup
  }

let print r =
  Table.print ~title:"perf: hot-path before/after rates"
    ~header:[ "operation"; "ops/s"; "note" ]
    (List.map
       (fun { name; ops_per_sec; note } ->
         [ name; Table.kops ops_per_sec; note ])
       r.rows);
  Table.print ~title:"perf: speedups and derived numbers"
    ~header:[ "quantity"; "value" ]
    [ [ "windowed vs binary pow_mod"; Table.f2 r.windowed_vs_binary ^ "x" ];
      [ "session vs stateless blind"; Table.f2 r.session_vs_stateless ^ "x" ];
      [ "sim events/s"; Table.kops r.sim_events_per_s ];
      [ "pdes events/s (4 shards)"; Table.kops r.pdes_events_per_s ];
      [ "counter inc (resolved)"; Table.f2 r.counter_resolved_ns ^ " ns" ];
      [ "counter inc (lookup)"; Table.f2 r.counter_lookup_ns ^ " ns" ]
    ]

let to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "{\"bench\": \"perf\", \"min_time_s\": %.2f, \"rows\": ["
       r.min_time);
  List.iteri
    (fun i { name; ops_per_sec; note } ->
      Buffer.add_string buf
        (Printf.sprintf "%s{\"op\": \"%s\", \"ops_per_s\": %.1f, \"note\": \"%s\"}"
           (if i = 0 then "" else ", ")
           name ops_per_sec note))
    r.rows;
  Buffer.add_string buf
    (Printf.sprintf
       "], \"speedups\": {\"windowed_vs_binary_pow_mod\": %.3f, \
        \"session_vs_stateless_blind\": %.3f}, \
        \"sim_events_per_s\": %.1f, \"pdes_events_per_s\": %.1f, \
        \"metrics_overhead\": {\"counter_inc_resolved_ns\": %.2f, \
        \"counter_inc_lookup_ns\": %.2f, \"note\": \"per-packet obs bump \
        cost with counters pre-resolved at attach vs a registry lookup \
        per bump\"}}"
       r.windowed_vs_binary r.session_vs_stateless
       r.sim_events_per_s r.pdes_events_per_s
       r.counter_resolved_ns r.counter_lookup_ns);
  Buffer.contents buf
