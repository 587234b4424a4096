(* Parallel-equivalence suite for the domain pool (lib/par) and the
   state pool domains can reach.

   The central claim under test: running work through a domain pool
   changes wall-clock time and nothing else. Keytab contents and obs
   counter totals must be bit-identical at pool sizes 1, 2 and 4 — pool
   size 1 *is* the sequential implementation. Alongside the equivalence
   properties live crypto reentrancy KATs (the shared fixtures really
   are safe to share) and regression tests for the sharing hazards the
   reentrancy pass fixed: the Lazy decrypt round keys in Aes and the
   per-session scratch buffers in Datapath. *)

let prop ?(count = 50) ~name ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

(* Pools are reused across test cases to amortize domain spawn; tests in
   a binary run sequentially, so the single-submitter contract holds. *)
let pool2 = Par.create ~size:2 ()
let pool4 = Par.create ~size:4 ()
let () = at_exit (fun () -> Par.shutdown pool2; Par.shutdown pool4)
let pools () = [ (1, None); (2, Some pool2); (4, Some pool4) ]

let hex = Crypto.Bytes_util.of_hex

(* ---- the pool itself ---- *)

let test_with_pool () =
  let r = Par.with_pool ~size:3 (fun p -> Par.size p) in
  Alcotest.(check int) "size" 3 r;
  Alcotest.check_raises "size must be positive"
    (Invalid_argument "Par.create: size must be >= 1") (fun () ->
      ignore (Par.with_pool ~size:0 (fun _ -> ())))

(* ---- the round barrier ---- *)

(* Back-to-back rounds of 1..8 tasks, each task bumping its own slot:
   every index runs exactly once per round, nothing runs after the round
   returns, and every task belongs to the round in flight. A worker that
   claims round k's index after the submitter reset the claim word for
   round k+1, or that runs a task with a stale job or count, shows up
   here as a slot counted twice, a slot counted in the next round's
   check, or a task of another round. *)
let test_round_exactly_once () =
  let slots = Array.init 8 (fun _ -> Atomic.make 0) in
  let current = Atomic.make (-1) and strays = Atomic.make 0 in
  List.iter
    (fun pool ->
      for r = 0 to 10_000 - 1 do
        let n = 1 + (r mod 8) in
        Atomic.set current r;
        Par.round pool ~n ~f:(fun i ->
            if Atomic.get current <> r then Atomic.incr strays;
            Atomic.incr slots.(i));
        Array.iteri
          (fun i slot ->
            let got = Atomic.exchange slot 0 in
            if got <> (if i < n then 1 else 0) then
              Alcotest.failf "pool=%d round %d (n=%d): task %d ran %d times"
                (Par.size pool) r n i got)
          slots
      done)
    [ pool2; pool4 ];
  Alcotest.(check int) "no task ran outside its round" 0 (Atomic.get strays)

let test_round_exception () =
  List.iter
    (fun pool ->
      let ran = Array.init 8 (fun _ -> Atomic.make 0) in
      (match
         Par.round pool ~n:8 ~f:(fun i ->
             Atomic.incr ran.(i);
             if i = 2 || i = 5 then failwith (string_of_int i))
       with
       | () -> Alcotest.fail "expected an exception"
       | exception Failure msg ->
         Alcotest.(check string) "task 2's exception" "2" msg);
      Alcotest.(check (array int))
        "the failing round still ran every task" (Array.make 8 1)
        (Array.map Atomic.get ran);
      let sum = Atomic.make 0 in
      Par.round pool ~n:8 ~f:(fun i -> ignore (Atomic.fetch_and_add sum i));
      Alcotest.(check int) "pool usable after a failed round" 28
        (Atomic.get sum))
    [ pool2; pool4 ]

(* [~n:0] is a round with no tasks; [~n:1] runs index 0 once. *)
let test_round_empty_and_single () =
  Par.with_pool ~size:1 (fun pool1 ->
      List.iter
        (fun pool ->
          let ran = Atomic.make 0 and seen = Atomic.make (-1) in
          Par.round pool ~n:0 ~f:(fun _ -> Atomic.incr ran);
          Alcotest.(check int) "n=0 runs nothing" 0 (Atomic.get ran);
          Par.round pool ~n:1 ~f:(fun i ->
              Atomic.incr ran;
              Atomic.set seen i);
          Alcotest.(check int) "n=1 runs one task" 1 (Atomic.get ran);
          Alcotest.(check int) "n=1 runs index 0" 0 (Atomic.get seen))
        [ pool1; pool2; pool4 ])

(* Shutdown must return at once after a round, while an idle worker is
   still spinning (when the pool fits the machine), and after the
   workers have parked. *)
let test_shutdown_spinning_or_parked () =
  List.iter
    (fun size ->
      let p = Par.create ~size () in
      Par.round p ~n:size ~f:ignore;
      Par.shutdown p;
      let p = Par.create ~size () in
      Par.round p ~n:size ~f:ignore;
      Unix.sleepf 0.05;
      Par.shutdown p;
      Par.shutdown p)
    [ 2; 3; 4; Par.recommended () + 1 ]

(* ---- the two-way fork onto the helper domain ---- *)

let spawns () =
  Obs.Counter.value
    (Obs.Registry.counter Obs.Registry.default "par.helper.spawns")

let split = Par.recommended () >= 2

(* [f] runs on the helper (another domain) when the host has two cores,
   on the caller otherwise; either way both results come back. [g] waits
   until [f] has started: a caller that finishes [g] while [f] is still
   posted takes [f] back (see the steal test below). *)
let test_both_results () =
  let self () = (Domain.self () :> int) in
  let caller = self () in
  let f_started = Atomic.make false in
  let f () =
    Atomic.set f_started true;
    self ()
  in
  let g () =
    while not (Atomic.get f_started) do
      Domain.cpu_relax ()
    done;
    self ()
  in
  let fd, gd = Par.both f g in
  Alcotest.(check int) "g on the caller" caller gd;
  Alcotest.(check bool) "f on the helper iff two cores" split (fd <> caller);
  Alcotest.(check (pair int string)) "both results" (6, "g")
    (Par.both (fun () -> 2 * 3) (fun () -> "g"))

(* [f]'s exception reaches the caller only after [g] has finished, and
   the helper serves the next call. *)
let test_both_exception () =
  let g_done = Atomic.make false in
  (match
     Par.both
       (fun () -> failwith "f")
       (fun () ->
         Unix.sleepf 0.002;
         Atomic.set g_done true)
   with
   | _ -> Alcotest.fail "expected f's exception"
   | exception Failure msg ->
     Alcotest.(check string) "f's exception" "f" msg;
     Alcotest.(check bool) "raised after g finished" true (Atomic.get g_done));
  (match Par.both (fun () -> 1) (fun () -> failwith "g") with
   | _ -> Alcotest.fail "expected g's exception"
   | exception Failure msg -> Alcotest.(check string) "g's exception" "g" msg);
  Alcotest.(check (pair int int)) "helper usable after" (1, 2)
    (Par.both (fun () -> 1) (fun () -> 2))

(* Poll [cond] every millisecond until it holds or [timeout] seconds
   pass; the timeout is generous so a loaded host does not fail it. *)
let eventually ?(timeout = 10.0) cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    cond () || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.001; go ()))
  in
  go ()

(* An idle helper exits by itself and the next call spawns it again.
   Each step waits for the helper to go, so no assertion depends on how
   soon the caller runs after a call. On a one-core host nothing is
   ever spawned. *)
let test_both_idle_exit () =
  let gone () = eventually (fun () -> not (Par.helper_live ())) in
  Alcotest.(check bool) "no helper left from earlier tests" true (gone ());
  let before = spawns () in
  let call () = ignore (Par.both (fun () -> ()) (fun () -> ())) in
  call ();
  Alcotest.(check int) "first call spawns iff two cores"
    (before + Bool.to_int split) (spawns ());
  Alcotest.(check bool) "idle helper exits" true (gone ());
  call ();
  Alcotest.(check int) "next call respawns iff two cores"
    (before + (2 * Bool.to_int split)) (spawns ())

let steals () =
  Obs.Counter.value
    (Obs.Registry.counter Obs.Registry.default "par.helper.steals")

(* A fresh helper takes longer to start than an instant [g] takes to
   run, so the caller usually takes [f] back and runs it itself. Each
   attempt waits for the helper to exit first. [f] runs exactly once
   whoever takes it, and the results are the same. On a one-core host
   nothing is posted, so nothing is stolen. *)
let test_both_steal () =
  let gone () = eventually (fun () -> not (Par.helper_live ())) in
  let before = steals () in
  let f_runs = Atomic.make 0 in
  let f () =
    Atomic.incr f_runs;
    "f"
  in
  let rec attempt calls =
    Alcotest.(check bool) "helper gone" true (gone ());
    Alcotest.(check (pair string int)) "results" ("f", 2)
      (Par.both f (fun () -> 2));
    if split && steals () = before && calls < 20 then attempt (calls + 1)
    else calls
  in
  let calls = attempt 1 in
  Alcotest.(check int) "f ran once per call" calls (Atomic.get f_runs);
  Alcotest.(check bool) "an instant g took f back iff two cores" split
    (steals () > before);
  (* An [f] that raises, taken back or not, still raises after [g]. *)
  Alcotest.(check bool) "helper gone" true (gone ());
  match Par.both (fun () -> failwith "f") (fun () -> ()) with
  | _ -> Alcotest.fail "expected f's exception"
  | exception Failure msg -> Alcotest.(check string) "f's exception" "f" msg

(* ---- equivalence: keytab ---- *)

let grant_of i : Core.Keytab.grant =
  { epoch = i mod 5;
    nonce = Printf.sprintf "nonce-%02d" (i mod 89);
    key =
      String.sub
        (Crypto.Sha256.digest (Printf.sprintf "ks-%d" i))
        0 Core.Protocol.key_len;
    obtained_at = Int64.of_int i
  }

let neutralizer_of i = Net.Ipaddr.of_string (Printf.sprintf "10.9.%d.1" (i mod 40))

let keytab_digest tab =
  let entries =
    List.map
      (fun (addr, (g : Core.Keytab.grant)) ->
        Printf.sprintf "%s|%d|%s|%s|%Ld" (Net.Ipaddr.to_string addr) g.epoch
          g.nonce
          (Crypto.Bytes_util.to_hex g.key)
          g.obtained_at)
      (Core.Keytab.grants tab)
  in
  Crypto.Sha256.digest_hex (String.concat ";" (List.sort compare entries))

let keytab_parallel_equivalence =
  prop ~count:30 ~name:"keytab: parallel puts digest-equal to sequential"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 1 120)
    (fun n ->
      let items = Array.init n (fun i -> i) in
      (* One neutralizer per index: concurrent puts to the SAME key are
         last-writer-wins (inherently schedule-dependent), so the
         deterministic fan-out contract is over distinct keys. *)
      let distinct i =
        Net.Ipaddr.of_string (Printf.sprintf "10.9.%d.%d" (i / 200) (2 + (i mod 200)))
      in
      let digest_with pool =
        let tab = Core.Keytab.create () in
        let put i =
          let g = grant_of i in
          Core.Keytab.put tab ~neutralizer:(distinct i) g;
          ignore (Core.Keytab.session tab g)
        in
        (match pool with
        | None -> Array.iter put items
        | Some p -> Par.round p ~n ~f:(fun i -> put items.(i)));
        keytab_digest tab
      in
      let reference = digest_with None in
      List.for_all (fun (_, pool) -> digest_with pool = reference) (pools ()))

let test_keytab_session_memo_shared () =
  (* Concurrent session lookups for one current grant all get the one
     memoized session — the table's mutex makes exactly one creator
     win. *)
  let tab = Core.Keytab.create () in
  let g = grant_of 7 in
  Core.Keytab.put tab ~neutralizer:(neutralizer_of 7) g;
  let sessions = Array.make 64 None in
  Par.round pool4 ~n:64 ~f:(fun i ->
      sessions.(i) <- Some (Core.Keytab.session tab g));
  let sessions = Array.map Option.get sessions in
  Alcotest.(check int) "one session memoized" 1 (Core.Keytab.session_count tab);
  Alcotest.(check bool)
    "all physically equal" true
    (Array.for_all (fun s -> s == sessions.(0)) sessions)

(* ---- equivalence: obs counters ---- *)

let obs_counter_equivalence =
  prop ~count:20 ~name:"obs: counter totals exact under 4-domain bumps"
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_range 1 5000)
    (fun n ->
      let c = Obs.Counter.create () in
      Par.round pool4 ~n ~f:(fun _ -> Obs.Counter.inc c);
      Obs.Counter.value c = n)

(* ---- crypto reentrancy: KATs from 4 domains at once ---- *)

let aes_kat () =
  let key = Crypto.Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let pt = hex "00112233445566778899aabbccddeeff" in
  let ct = Crypto.Aes.encrypt_block key pt in
  ct = hex "69c4e0d86a7b0430d8cdb78070b4c55a"
  && Crypto.Aes.decrypt_block key ct = pt
  && Crypto.Aes.encrypt_block_reference key pt = ct

let cmac_kat () =
  let k = Crypto.Cmac.key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  Crypto.Cmac.mac k "" = hex "bb1d6929e95937287fa37d129b756746"
  && Crypto.Cmac.mac k (hex "6bc1bee22e409f96e93d7e117393172a")
     = hex "070a16b46b4d4144f79bdd9dd04a287c"

let sha256_kat () =
  Crypto.Sha256.digest_hex "abc"
  = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
  && Crypto.Sha256.digest_hex ""
     = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

(* RFC 4231 cases 1-4, 6 and 7, each key prepared once: the prepared
   keys (SHA-256 chaining states) are what every domain shares. *)
let hmac_prepared_kats =
  List.map
    (fun (k, msg, tag) -> (Crypto.Hmac.key k, msg, hex tag))
    [ (String.make 20 '\x0b', "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
      ("Jefe", "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
      (String.make 20 '\xaa', String.make 50 '\xdd',
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
      (String.init 25 (fun i -> Char.chr (i + 1)), String.make 50 '\xcd',
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
      (String.make 131 '\xaa',
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
      (String.make 131 '\xaa',
       "This is a test using a larger than block-size key and a larger than \
        block-size data. The key needs to be hashed before being used by the \
        HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2")
    ]

let hmac_kat () =
  List.for_all (fun (key, msg, tag) -> Crypto.Hmac.mac key msg = tag)
    hmac_prepared_kats

let run_from_domains ~domains ~iters f =
  let spawned =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to iters do
              if not (f ()) then ok := false
            done;
            !ok))
  in
  List.for_all Domain.join spawned

let test_crypto_reentrant_kats () =
  Alcotest.(check bool)
    "AES FIPS-197 from 4 domains" true
    (run_from_domains ~domains:4 ~iters:50 aes_kat);
  Alcotest.(check bool)
    "CMAC RFC 4493 from 4 domains" true
    (run_from_domains ~domains:4 ~iters:50 cmac_kat);
  Alcotest.(check bool)
    "SHA-256 RFC 6234 vectors from 4 domains" true
    (run_from_domains ~domains:4 ~iters:50 sha256_kat);
  Alcotest.(check bool) "HMAC RFC 4231 sequentially" true (hmac_kat ());
  Alcotest.(check bool)
    "HMAC RFC 4231 through shared prepared keys from 4 domains" true
    (run_from_domains ~domains:4 ~iters:50 hmac_kat);
  (* One session's keys, shared: every domain opens the same blob to the
     sequential plaintext. *)
  let drbg = Crypto.Drbg.create ~seed:"par-seal" in
  let rng n = Crypto.Drbg.generate drbg n in
  let keys = Crypto.Seal.keys (rng 32) in
  let plaintext = String.init 1200 (fun i -> Char.chr (i land 0xff)) in
  let blob = Crypto.Seal.seal_sym ~rng keys ~header:"" plaintext in
  let sequential = Crypto.Seal.unseal_sym keys ~off:0 blob in
  Alcotest.(check (option string)) "Seal keys open sequentially"
    (Some plaintext) sequential;
  Alcotest.(check bool)
    "Seal keys shared by 4 domains open one blob" true
    (run_from_domains ~domains:4 ~iters:50 (fun () ->
         Crypto.Seal.unseal_sym keys ~off:0 blob = sequential));
  (* Independent DRBG streams, each sealing and opening under its own
     keys: the kernels' per-domain scratch must give every domain the
     bytes its stream gives sequentially. *)
  let seal_stream i =
    let d = Crypto.Drbg.create ~seed:(Printf.sprintf "par-stream-%d" i) in
    let rng n = Crypto.Drbg.generate d n in
    let keys = Crypto.Seal.keys (rng 32) in
    List.map
      (fun n ->
        let pt = String.init n (fun j -> Char.chr (((j * 7) + i) land 0xff)) in
        let blob = Crypto.Seal.seal_sym ~rng keys ~header:"" pt in
        (rng 17, blob, Crypto.Seal.unseal_sym keys ~off:0 blob = Some pt))
      [ 0; 17; 40; 65; 1201 ]
  in
  let streams = Array.init 4 seal_stream in
  Alcotest.(check bool) "seal_sym round trips sequentially" true
    (Array.for_all (List.for_all (fun (_, _, ok) -> ok)) streams);
  let spawned =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            List.for_all
              (fun _ -> seal_stream i = streams.(i))
              (List.init 50 Fun.id)))
  in
  Alcotest.(check bool)
    "DRBG streams and seal_sym round trips on 4 domains = sequential" true
    (List.for_all Domain.join spawned)

(* The Montgomery kernel writes into scratch: four domains sharing one
   RSA-1024 key, and one [Montgomery.ctx], must each get the sequential
   result. A kernel keeping its scratch in the ctx or in a global fails
   here. The decryptions start while the helper domain is live, so the
   four contend for it: one at a time splits its CRT halves, the rest
   run both halves themselves, and all must get the same bytes. *)
let test_bignum_reentrant () =
  let key = Scenario.Keyring.e2e 0 in
  let drbg = Crypto.Drbg.create ~seed:"par-rsa" in
  let rng n = Crypto.Drbg.generate drbg n in
  let msg = "shared key, four domains" in
  let ct = Crypto.Rsa.encrypt key.Crypto.Rsa.public ~rng msg in
  let splits () =
    Obs.Counter.value
      (Obs.Registry.counter Obs.Registry.default "crypto.rsa.crt_splits")
  in
  let sign = Crypto.Rsa.sign key msg in
  let m = key.Crypto.Rsa.p in
  let ctx = Option.get (Bignum.Nat.Montgomery.create m) in
  let b = Bignum.Nat.of_bytes_be (rng 64) and e = key.Crypto.Rsa.dp in
  let pow = Bignum.Nat.Montgomery.pow_mod ctx b e in
  let before = splits () in
  Alcotest.(check bool)
    "RSA-1024 decrypt from 4 domains" true
    (run_from_domains ~domains:4 ~iters:8 (fun () ->
         Crypto.Rsa.decrypt key ct = Some msg));
  Alcotest.(check bool)
    "RSA-1024 sign from 4 domains" true
    (run_from_domains ~domains:4 ~iters:8 (fun () ->
         Crypto.Rsa.sign key msg = sign));
  Alcotest.(check int) "every private operation took the split path"
    (if split then 64 else 0)
    (splits () - before);
  Alcotest.(check bool)
    "pow_mod on one shared ctx from 4 domains" true
    (run_from_domains ~domains:4 ~iters:16 (fun () ->
         Bignum.Nat.equal (Bignum.Nat.Montgomery.pow_mod ctx b e) pow))

(* ---- the keyring's concurrent generation ---- *)

let keygens () =
  Obs.Counter.value
    (Obs.Registry.counter Obs.Registry.default "crypto.rsa.keygens")

(* [Keyring.prepare] generates its keys as round tasks on a pool: each
   must be the key the sequential path derives from the same seed. No
   earlier case in this binary touches a one-time key, so the first
   [prepare] generates all four. Keys are records of canonical naturals,
   so structural equality is value equality. *)
let test_keyring_prepare () =
  let before = keygens () in
  Scenario.Keyring.prepare ~e2e:[] ~onetime:[ 0; 1; 2; 3 ];
  Alcotest.(check int) "one keygen per missing key" 4 (keygens () - before);
  List.iter
    (fun i ->
      let sequential =
        Crypto.Rsa.generate ~e:3 ~bits:512 (Random.State.make [| 0x512; i |])
      in
      Alcotest.(check bool)
        (Printf.sprintf "one-time key %d = sequential" i)
        true
        (Scenario.Keyring.onetime i = sequential))
    [ 0; 1; 2; 3 ];
  (* A digest of e2e 0's modulus and private exponent, as the
     sequential keyring generated it. *)
  let k = Scenario.Keyring.e2e 0 in
  Alcotest.(check string) "e2e 0 fingerprint"
    "9e6c0f6b7bc6b22c6f1c38c3a29072daf926f608efb52e6150ad58a25b947747"
    (Crypto.Sha256.digest_hex
       (Bignum.Nat.to_bytes_be k.Crypto.Rsa.public.Crypto.Rsa.n
       ^ Bignum.Nat.to_bytes_be k.Crypto.Rsa.d));
  let before = keygens () in
  Scenario.Keyring.prepare ~e2e:[ 0 ] ~onetime:[ 3; 2; 1; 0; 0 ];
  Alcotest.(check int) "memoized keys are not generated again" 0
    (keygens () - before)

(* ---- regressions for the specific hazards the reentrancy pass fixed ---- *)

let test_aes_decrypt_shared_key () =
  (* Before the fix the decrypt round keys were a [Lazy.t]; two domains
     forcing it together could raise (Lazy is not domain-safe). Each
     iteration shares a FRESH key across 4 domains so the first force
     always races. *)
  for i = 0 to 24 do
    let key =
      Crypto.Aes.expand_key
        (String.sub (Crypto.Sha256.digest (Printf.sprintf "k%d" i)) 0 16)
    in
    let pt = String.sub (Crypto.Sha256.digest (Printf.sprintf "p%d" i)) 0 16 in
    let ct = Crypto.Aes.encrypt_block key pt in
    if
      not
        (run_from_domains ~domains:4 ~iters:1 (fun () ->
             Crypto.Aes.decrypt_block key ct = pt))
    then Alcotest.failf "shared-key decrypt diverged at iteration %d" i
  done

let test_datapath_session_shared () =
  (* Before the fix a session carried reused tag scratch buffers; two
     domains tagging at once could cross-talk and produce a bad tag.
     Shared session, disjoint addresses per domain, every round trip
     must agree with the stateless reference. *)
  let drbg = Crypto.Drbg.create ~seed:"par-session" in
  let rng n = Crypto.Drbg.generate drbg n in
  let ks = rng Core.Protocol.key_len in
  let nonce = rng Core.Protocol.nonce_len in
  let epoch = 2 in
  let s = Core.Datapath.make_session ~ks ~epoch ~nonce in
  let addr_of d i = Net.Ipaddr.of_string (Printf.sprintf "10.%d.3.%d" (20 + d) (2 + i)) in
  let reference d i =
    let a = addr_of d i in
    (a, Core.Datapath.blind ~ks ~epoch ~nonce a)
  in
  let refs = Array.init 4 (fun d -> Array.init 100 (reference d)) in
  let did = Atomic.make 0 in
  let ok =
    run_from_domains ~domains:4 ~iters:1 (fun () ->
        let d = Atomic.fetch_and_add did 1 in
        Array.for_all
          (fun (a, (enc_ref, tag_ref)) ->
            let enc, tag = Core.Datapath.blind_session s a in
            enc = enc_ref && tag = tag_ref
            && Core.Datapath.unblind_session s ~enc_addr:enc ~tag
               = Some a)
          refs.(d))
  in
  Alcotest.(check bool) "shared session matches stateless reference" true ok

(* ---- keytab stress: table vs sequential model ---- *)

type keytab_op =
  | Put of int
  | Invalidate of int

let gen_op =
  QCheck2.Gen.(
    frequency
      [ (6, map (fun i -> Put i) (int_bound 200));
        (2, map (fun i -> Invalidate i) (int_bound 200))
      ])

let print_op = function
  | Put i -> Printf.sprintf "Put %d" i
  | Invalidate i -> Printf.sprintf "Invalidate %d" i

(* Sequential reference model: an assoc list, the spec made executable. *)
module Model = struct
  type t = { mutable cur : (string * Core.Keytab.grant) list (* key: addr octets *) }

  let create () = { cur = [] }
  let okey a = Net.Ipaddr.to_octets a

  let put m ~neutralizer g =
    m.cur <- (okey neutralizer, g) :: List.remove_assoc (okey neutralizer) m.cur

  let current m ~neutralizer = List.assoc_opt (okey neutralizer) m.cur

  let invalidate m ~neutralizer =
    m.cur <- List.remove_assoc (okey neutralizer) m.cur
end

let keytab_model_stress =
  prop ~count:40 ~name:"keytab: sharded table matches sequential model"
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_bound 80) gen_op)
    (fun ops ->
      let tab = Core.Keytab.create () in
      let m = Model.create () in
      List.iter
        (fun op ->
          match op with
          | Put i ->
            let g = grant_of i in
            Core.Keytab.put tab ~neutralizer:(neutralizer_of i) g;
            ignore (Core.Keytab.session tab g);
            Model.put m ~neutralizer:(neutralizer_of i) g
          | Invalidate i ->
            Core.Keytab.invalidate tab ~neutralizer:(neutralizer_of i);
            Model.invalidate m ~neutralizer:(neutralizer_of i))
        ops;
      (* Every observable agrees with the model at every probe point, and
         the memo holds exactly the current grants' sessions. *)
      let agree_at i =
        let neutralizer = neutralizer_of i in
        Core.Keytab.current tab ~neutralizer = Model.current m ~neutralizer
      in
      List.for_all agree_at (List.init 40 (fun i -> i))
      && Core.Keytab.session_count tab = List.length m.Model.cur)

let () =
  Alcotest.run "par"
    [ ( "pool",
        [ Alcotest.test_case "empty and small" `Quick
            test_round_empty_and_single;
          Alcotest.test_case "with_pool" `Quick test_with_pool;
          Alcotest.test_case "round: every index once, 10k rounds" `Quick
            test_round_exactly_once;
          Alcotest.test_case "round: lowest exception, pool survives" `Quick
            test_round_exception;
          Alcotest.test_case "shutdown while spinning or parked" `Quick
            test_shutdown_spinning_or_parked
        ] );
      ( "both",
        [ Alcotest.test_case "results, f on the helper" `Quick
            test_both_results;
          Alcotest.test_case "exceptions after both halves" `Quick
            test_both_exception;
          Alcotest.test_case "idle helper exits, next call respawns" `Quick
            test_both_idle_exit;
          Alcotest.test_case "instant g after exit takes f back" `Quick
            test_both_steal
        ] );
      ( "equivalence",
        [ keytab_parallel_equivalence;
          obs_counter_equivalence;
          Alcotest.test_case "session memo shared" `Quick
            test_keytab_session_memo_shared
        ] );
      ( "reentrancy",
        [ Alcotest.test_case "crypto KATs from 4 domains" `Quick
            test_crypto_reentrant_kats;
          Alcotest.test_case "bignum: RSA-1024 and shared ctx from 4 domains"
            `Quick test_bignum_reentrant;
          Alcotest.test_case "aes: shared-key decrypt (regression)" `Quick
            test_aes_decrypt_shared_key;
          Alcotest.test_case "datapath: shared session (regression)" `Quick
            test_datapath_session_shared
        ] );
      ("keytab", [ keytab_model_stress ]);
      ( "keyring",
        [ Alcotest.test_case "prepare = sequential keys, memoized once" `Quick
            test_keyring_prepare
        ] )
    ]
