(* Layer probes: single public functions timed in isolation, on inputs
   taken from the workload: shim frames captured at its AT&T tap, the
   datapath session of a grant its client holds, its key sizes and the
   one-time key its clients use, and its engine's pending population. *)

let slots = 5

(* Median ns per call over [slots] equal slices of [budget_ns]. Calls
   are batched so that one pair of clock reads spans at least 20 us. *)
let ns_per_call ~budget_ns f =
  let batch = ref 1 in
  let rec calibrate () =
    let t0 = Clock.now () in
    for _ = 1 to !batch do
      f ()
    done;
    if Clock.now () - t0 < 20_000 && !batch < 1 lsl 20 then begin
      batch := 2 * !batch;
      calibrate ()
    end
  in
  calibrate ();
  let per_call = Stats.create () in
  for _ = 1 to slots do
    let t0 = Clock.now () and calls = ref 0 in
    while Clock.now () - t0 < budget_ns / slots do
      for _ = 1 to !batch do
        f ()
      done;
      calls := !calls + !batch
    done;
    Stats.add per_call (float_of_int (Clock.now () - t0) /. float_of_int !calls)
  done;
  Stats.median per_call

(* One element of [xs] per call, in turn. *)
let cycling xs f =
  let i = ref 0 in
  fun () ->
    f xs.(!i);
    i := (!i + 1) mod Array.length xs

let frames_probe ~budget_ns xs f =
  if Array.length xs = 0 then begin
    Phase.fail "probes: the AT&T tap captured no shim frames";
    nan
  end
  else ns_per_call ~budget_ns (cycling xs f)

let us ns = ns /. 1e3
let opaque x = ignore (Sys.opaque_identity x)

type fig1_inputs = {
  world : Scenario.World.t;
  frames : string array;
  session : Core.Datapath.session;
  src : Net.Ipaddr.t;
  dest : Net.Ipaddr.t;
}

let fig1_inputs (world : Scenario.World.t) client ~dest =
  let keytab = Core.Client.keytab client in
  match Core.Keytab.current keytab ~neutralizer:world.Scenario.World.anycast with
  | None -> failwith "probes: the client holds no grant"
  | Some grant ->
    { world;
      frames =
        Array.of_list
          (List.filter_map
             (fun (o : Net.Observation.t) -> o.Net.Observation.shim)
             (Net.Trace.to_list world.Scenario.World.att_trace));
      session = Core.Keytab.session keytab grant;
      src = Net.Host.addr (Core.Client.host client);
      dest
    }

let crypto_and_core ~budget_ns fi =
  let t f = ns_per_call ~budget_ns f in
  let drbg = Crypto.Drbg.create ~seed:"perfbench-probes" in
  let rng n = Crypto.Drbg.generate drbg n in
  let onetime = Scenario.Keyring.onetime 0 in
  let site_key = (Scenario.World.site fi.world "google").Scenario.World.key in
  let pub512 = onetime.Crypto.Rsa.public in
  let pub1024 = site_key.Crypto.Rsa.public in
  let secret = rng 32 in
  let decrypt (key : Crypto.Rsa.private_key) =
    let ct = Crypto.Rsa.encrypt key.Crypto.Rsa.public ~rng secret in
    us (t (fun () -> opaque (Crypto.Rsa.decrypt key ct)))
  in
  let encrypt pub =
    us (t (fun () -> opaque (Crypto.Rsa.encrypt pub ~rng secret)))
  in
  let pow_mod =
    let n = pub512.Crypto.Rsa.n in
    match Bignum.Nat.Montgomery.create n with
    | None -> nan
    | Some ctx ->
      let b = Bignum.Nat.rem (Bignum.Nat.of_bytes_be (rng 64)) n in
      us
        (t (fun () ->
             opaque (Bignum.Nat.Montgomery.pow_mod ctx b onetime.Crypto.Rsa.d)))
  in
  let aes = Crypto.Aes.expand_key (rng 16) in
  let block = Bytes.of_string (rng 16) in
  let raw_key = rng 16 in
  let cmac = Crypto.Cmac.key (rng 16) in
  let nonce_src = rng 12 in
  let m64 = rng 64 in
  let decoded =
    Array.of_list
      (List.filter_map
         (fun f -> Result.to_option (Core.Shim.decode_strict f))
         (Array.to_list fi.frames))
  in
  let enc_addr, tag = Core.Datapath.blind_session fi.session fi.dest in
  let pubkey_blob = Crypto.Rsa.public_to_string pub512 in
  let master = fi.world.Scenario.World.master in
  [ ("bignum.pow_mod_512_us", pow_mod);
    ("crypto.rsa.decrypt_512_us", decrypt onetime);
    ("crypto.rsa.decrypt_1024_us", decrypt site_key);
    ("crypto.rsa.encrypt_e3_us", encrypt pub512);
    ("crypto.rsa.encrypt_e3_1024_us", encrypt pub1024);
    ( "crypto.aes.block_ns",
      t (fun () -> Crypto.Aes.encrypt_bytes aes ~src:block ~dst:block) );
    ("crypto.aes.expand_ns", t (fun () -> opaque (Crypto.Aes.expand_key raw_key)));
    ("crypto.cmac_ns", t (fun () -> opaque (Crypto.Cmac.mac cmac nonce_src)));
    ("crypto.sha256_64B_ns", t (fun () -> opaque (Crypto.Sha256.digest m64)));
    ( "core.shim.encode_ns",
      frames_probe ~budget_ns decoded (fun m -> opaque (Core.Shim.encode m)) );
    ( "core.shim.decode_strict_ns",
      frames_probe ~budget_ns fi.frames (fun f ->
          opaque (Core.Shim.decode_strict f)) );
    ( "core.datapath.blind_session_ns",
      t (fun () -> opaque (Core.Datapath.blind_session fi.session fi.dest)) );
    ( "core.datapath.unblind_session_ns",
      t (fun () ->
          opaque (Core.Datapath.unblind_session fi.session ~enc_addr ~tag)) );
    ( "core.datapath.key_setup_response_us",
      us
        (t (fun () ->
             opaque
               (Core.Datapath.key_setup_response ~master ~rng ~src:fi.src
                  ~pubkey_blob))) )
  ]

let lcg seed =
  let s = ref seed in
  fun () ->
    s := (!s * 2685821657736338717) + 1442695040888963407;
    (!s lsr 24) land 0xfffff

(* One event dispatched by an engine that holds [population] pending
   events; every event re-arms itself, so the population holds. *)
let dispatch_ns ~budget_ns ~population =
  let p = max 1 population in
  let engine =
    Net.Engine.create ~obs:(Obs.Registry.create ()) ~capacity:(2 * p) ()
  in
  let next = lcg 7 in
  let rec event () =
    ignore (Net.Engine.schedule engine ~delay:(Int64.of_int (1 + next ())) event)
  in
  for _ = 1 to p do
    ignore (Net.Engine.schedule engine ~delay:(Int64.of_int (next ())) event)
  done;
  let chunk = 256 in
  ns_per_call ~budget_ns (fun () -> Net.Engine.run ~max_events:chunk engine)
  /. float_of_int chunk

(* One push and one pop on a heap that holds [population] entries. *)
let pqueue_churn_ns ~budget_ns ~population =
  let p = max 1 population in
  let q = Net.Pqueue.create ~capacity:(p + 1) () in
  let next = lcg 42 in
  for i = 0 to p - 1 do
    Net.Pqueue.push q (Int64.of_int (next ())) i ()
  done;
  let seq = ref p in
  ns_per_call ~budget_ns (fun () ->
      Net.Pqueue.push q (Int64.of_int (next ())) !seq ();
      incr seq;
      opaque (Net.Pqueue.pop_min q))

let median_seconds reps f =
  Stats.median_of
    (List.init reps (fun _ ->
         let t0 = Clock.now () in
         f ();
         Clock.to_s (Clock.now () - t0)))

(* The topology layer, at the as-scale shape. *)
let scale_layer ~budget_ns (s : Scale.t) =
  let routers = s.Scale.gen.Net.Topogen.routers in
  let anycast = s.Scale.gen.Net.Topogen.anycast in
  [ ("net.topogen.generate_s", median_seconds 3 (fun () -> opaque (Scale.generate ())));
    ( "net.network.routes_s",
      median_seconds 3 (fun () -> Net.Network.recompute_routes s.Scale.net) );
    ( "net.routing.route_path_us",
      us
        (ns_per_call ~budget_ns
           (cycling routers (fun r ->
                opaque (Net.Network.route_path s.Scale.net ~from:r anycast)))) )
  ]
