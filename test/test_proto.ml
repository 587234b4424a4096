(* Wire-protocol hardening suite: the strict versioned shim codec, the
   downgrade gate, the golden vectors, rotation x wire epochs, and a
   seeded >=10k-frame malformed-input sweep.

   Determinism follows test_fuzz's convention: one root seed (FUZZ_SEED,
   default 0xf00d) printed at startup; per-test streams derive from
   hash(root, label) so tests do not perturb each other. *)

let root_seed =
  match Sys.getenv_opt "FUZZ_SEED" with
  | Some s ->
    (try int_of_string s
     with Failure _ ->
       Printf.ksprintf failwith "FUZZ_SEED must be an integer, got %S" s)
  | None -> 0xf00d

let () =
  Printf.printf "proto fuzz root seed: %d (override with FUZZ_SEED)\n%!"
    root_seed

let prng_for label =
  Fault.Prng.create ~seed:(root_seed lxor Hashtbl.hash label)

let prop ?(count = 300) name gen print f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

let v2 = Core.Protocol.wire_version
let v1 = Core.Protocol.wire_version_legacy

let with_version_byte s v =
  let b = Bytes.of_string s in
  Bytes.set b 3 (Char.chr v);
  Bytes.to_string b

let legacy s = with_version_byte s 0

let err_label = function
  | Ok _ -> "accepted"
  | Error e -> Core.Shim.error_label e

(* ---- qcheck round-trips with boundary emphasis (satellite 1) ---- *)

let gen_bytes n = QCheck2.Gen.(string_size ~gen:char (return n))

(* Boundary-heavy atoms: epoch is often exactly 0 or 255, times often
   the 0L sentinel or Int64.max_int, blobs often empty or exactly
   Protocol.max_blob_len. *)
let gen_epoch =
  QCheck2.Gen.(oneof [ return 0; return 255; int_bound 255 ])

let gen_time =
  QCheck2.Gen.(
    oneof
      [ return 0L;
        return Int64.max_int;
        map (fun n -> Int64.of_int n) nat
      ])

let gen_blob =
  QCheck2.Gen.(
    oneof
      [ return "";
        string_size ~gen:char (return Core.Protocol.max_blob_len);
        string_size ~gen:char (int_bound 100)
      ])

let gen_shim =
  let open QCheck2.Gen in
  let gen_addr = map (fun i -> Net.Ipaddr.of_int (i land 0xffffffff)) nat in
  let gen_refresh =
    let* r_epoch = gen_epoch in
    let* r_nonce = gen_bytes Core.Protocol.nonce_len in
    let* r_key = gen_bytes Core.Protocol.key_len in
    return { Core.Shim.r_epoch; r_nonce; r_key }
  in
  oneof
    [ (let* pubkey = gen_blob in
       let* deadline = gen_time in
       return (Core.Shim.Key_setup_request { pubkey; deadline }));
      map (fun rsa_ct -> Core.Shim.Key_setup_response { rsa_ct }) gen_blob;
      (let* epoch = gen_epoch in
       let* nonce = gen_bytes Core.Protocol.nonce_len in
       let* enc_addr = gen_bytes 4 in
       let* tag = gen_bytes Core.Protocol.tag_len in
       let* key_request = bool in
       let* from_customer = bool in
       let* refresh = option gen_refresh in
       return
         (Core.Shim.Data
            { epoch; nonce; enc_addr; tag; key_request; from_customer; refresh }));
      (let* epoch = gen_epoch in
       let* nonce = gen_bytes Core.Protocol.nonce_len in
       let* initiator = gen_addr in
       return (Core.Shim.Return { epoch; nonce; initiator }));
      map (fun outside -> Core.Shim.Reverse_key_request { outside }) gen_addr;
      (let* epoch = gen_epoch in
       let* nonce = gen_bytes Core.Protocol.nonce_len in
       let* key = gen_bytes Core.Protocol.key_len in
       return (Core.Shim.Reverse_key_response { epoch; nonce; key }));
      map (fun lease -> Core.Shim.Qos_address_request { lease }) gen_time;
      (let* addr = gen_addr in
       let* lease = gen_time in
       return (Core.Shim.Qos_address_response { addr; lease }));
      (let* pubkey = gen_blob in
       let* epoch = gen_epoch in
       let* nonce = gen_bytes Core.Protocol.nonce_len in
       let* key = gen_bytes Core.Protocol.key_len in
       let* requester = gen_addr in
       return (Core.Shim.Offload { pubkey; epoch; nonce; key; requester }));
      map
        (fun current_epoch -> Core.Shim.Stale_grant { current_epoch })
        gen_epoch
    ]

let print_shim s = Printf.sprintf "kind=%d" (Core.Shim.kind_tag s)

let roundtrip_props =
  [ prop "strict roundtrip: decode_strict (encode s) = Ok s" gen_shim
      print_shim
      (fun s -> Core.Shim.decode_strict (Core.Shim.encode s) = Ok s);
    prop "every encoding carries wire_version" gen_shim print_shim (fun s ->
        match Core.Shim.decode_versioned (Core.Shim.encode s) with
        | Ok (v, s') -> v = v2 && s' = s
        | Error _ -> false);
    prop "legacy (zero version byte) decodes as v1 to the same message"
      gen_shim print_shim (fun s ->
        Core.Shim.decode_versioned (legacy (Core.Shim.encode s)) = Ok (v1, s));
    prop "every proper prefix is a typed error, never Ok, never a raise"
      gen_shim print_shim (fun s ->
        let b = Core.Shim.encode s in
        let ok = ref true in
        for n = 0 to String.length b - 1 do
          match Core.Shim.decode_strict (String.sub b 0 n) with
          | Ok _ -> ok := false
          | Error _ -> ()
        done;
        !ok)
  ]

(* ---- typed decode errors (satellite 2: no Invalid_argument escapes,
   length fields are not trusted) ---- *)

let check_err name expect got =
  Alcotest.(check string) name expect (err_label got)

let sample_data =
  Core.Shim.Data
    { epoch = 9;
      nonce = String.make Core.Protocol.nonce_len 'n';
      enc_addr = "abcd";
      tag = "tagg";
      key_request = false;
      from_customer = false;
      refresh = None
    }

let test_typed_errors () =
  let d = Core.Shim.encode sample_data in
  check_err "empty is truncated" "truncated" (Core.Shim.decode_strict "");
  check_err "3 bytes is truncated" "truncated"
    (Core.Shim.decode_strict "\x02\x00\x00");
  check_err "trailing byte refused" "trailing-bytes"
    (Core.Shim.decode_strict (d ^ "\x00"));
  (* kind sweep: everything above 9 is unknown *)
  for kind = 10 to 255 do
    let b = Bytes.of_string d in
    Bytes.set b 0 (Char.chr kind);
    check_err
      (Printf.sprintf "kind %d unknown" kind)
      "unknown-kind"
      (Core.Shim.decode_strict (Bytes.to_string b))
  done;
  (* version sweep: only 0 (legacy) and wire_version parse *)
  for v = 0 to 255 do
    let got = Core.Shim.decode_versioned (with_version_byte d v) in
    if v = 0 then
      Alcotest.(check bool)
        (Printf.sprintf "version byte %d = legacy" v)
        true
        (got = Ok (v1, sample_data))
    else if v = v2 then
      Alcotest.(check bool)
        (Printf.sprintf "version byte %d = current" v)
        true
        (got = Ok (v2, sample_data))
    else check_err (Printf.sprintf "version byte %d refused" v) "bad-version" got
  done;
  (* reserved flag bits on a data shim *)
  List.iter
    (fun bit ->
      let b = Bytes.of_string d in
      Bytes.set b 1 (Char.chr bit);
      check_err
        (Printf.sprintf "data flag 0x%02x reserved" bit)
        "reserved-nonzero"
        (Core.Shim.decode_strict (Bytes.to_string b)))
    [ 0x08; 0x10; 0x80; 0xff ];
  (* flags/epoch must be zero on kinds that have neither *)
  let ksr = Core.Shim.encode (Core.Shim.Key_setup_request { pubkey = "k"; deadline = 1L }) in
  let flip i v s =
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr v);
    Bytes.to_string b
  in
  check_err "nonzero flags on key-setup-request" "reserved-nonzero"
    (Core.Shim.decode_strict (flip 1 1 ksr));
  check_err "nonzero epoch on key-setup-request" "reserved-nonzero"
    (Core.Shim.decode_strict (flip 2 7 ksr));
  (* length fields are bounded, not trusted: a huge or impossible blob
     length must land as a typed error before any allocation *)
  let blob_len_at off v s =
    let b = Bytes.of_string s in
    Bytes.set_int32_be b off (Int32.of_int v);
    Bytes.to_string b
  in
  let ct = Core.Shim.encode (Core.Shim.Key_setup_response { rsa_ct = "cc" }) in
  check_err "blob length over max_blob_len" "oversized"
    (Core.Shim.decode_strict
       (blob_len_at 4 (Core.Protocol.max_blob_len + 1) ct));
  check_err "blob length 0xffffffff" "oversized"
    (Core.Shim.decode_strict (blob_len_at 4 0xffffffff ct));
  check_err "blob length beyond frame" "truncated"
    (Core.Shim.decode_strict (blob_len_at 4 3 ct));
  check_err "blob length under frame" "trailing-bytes"
    (Core.Shim.decode_strict (blob_len_at 4 1 ct));
  (* u64 time fields with the sign bit set *)
  let neg = Bytes.of_string ksr in
  Bytes.set neg 4 '\xff';
  check_err "negative deadline" "negative"
    (Core.Shim.decode_strict (Bytes.to_string neg));
  (* wrong exact lengths *)
  check_err "data shim cut to 19" "truncated"
    (Core.Shim.decode_strict (String.sub d 0 19))

let test_encode_refuses_bad_fields () =
  let raises f = match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "epoch 256" true
    (raises (fun () ->
         Core.Shim.encode (Core.Shim.Stale_grant { current_epoch = 256 })));
  Alcotest.(check bool) "negative epoch" true
    (raises (fun () ->
         Core.Shim.encode (Core.Shim.Stale_grant { current_epoch = -1 })));
  Alcotest.(check bool) "short nonce" true
    (raises (fun () ->
         Core.Shim.encode
           (Core.Shim.Return
              { epoch = 0; nonce = "abc"; initiator = Net.Ipaddr.of_int 1 })));
  Alcotest.(check bool) "negative lease" true
    (raises (fun () ->
         Core.Shim.encode (Core.Shim.Qos_address_request { lease = -1L })));
  Alcotest.(check bool) "oversized blob" true
    (raises (fun () ->
         Core.Shim.encode
           (Core.Shim.Key_setup_response
              { rsa_ct = String.make (Core.Protocol.max_blob_len + 1) 'x' })));
  (* the pinned legacy message for bad data field sizes survives *)
  match
    Core.Shim.encode
      (Core.Shim.Data
         { epoch = 0;
           nonce = "short";
           enc_addr = "abcd";
           tag = "tagg";
           key_request = false;
           from_customer = false;
           refresh = None
         })
  with
  | exception Invalid_argument m ->
    Alcotest.(check string) "message" "Shim.encode: bad data field sizes" m
  | _ -> Alcotest.fail "bad data sizes accepted"

(* ---- golden vectors ---- *)

let test_vectors_self_check () =
  match Core.Vectors.self_check () with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_vectors_file_stable () =
  (* The checked-in fixture must match the codec byte for byte — the
     same comparison `netneutral vectors` makes. *)
  (* cwd is _build/default/test under `dune runtest` (the dune deps glob
     stages the fixture there) and the repo root under `dune exec` *)
  let candidates =
    [ Filename.concat "vectors" Core.Vectors.file_name;
      Filename.concat "test/vectors" Core.Vectors.file_name
    ]
  in
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None ->
      Alcotest.failf "golden vector file not found (tried %s)"
        (String.concat ", " candidates)
  in
  let on_disk = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check bool)
    "test/vectors/shim_v2.hex matches the codec (regenerate with \
     `netneutral vectors --write` only for a deliberate format change)"
    true
    (String.equal on_disk (Core.Vectors.render ()))

(* ---- version gate ---- *)

let peer_a = Net.Ipaddr.of_int 0x0a010203
let peer_b = Net.Ipaddr.of_int 0x0a010204

let test_gate_ratchet () =
  let g = Core.Version_gate.create () in
  Alcotest.(check bool) "first contact at v1 admitted" true
    (Core.Version_gate.admit g ~peer:peer_a ~version:v1
     = Core.Version_gate.Admitted);
  Alcotest.(check bool) "upgrade to v2 admitted" true
    (Core.Version_gate.admit g ~peer:peer_a ~version:v2
     = Core.Version_gate.Admitted);
  Alcotest.(check bool) "v1 after v2 refused" true
    (Core.Version_gate.admit g ~peer:peer_a ~version:v1
     = Core.Version_gate.Downgrade { seen = v2; got = v1 });
  Alcotest.(check bool) "refusal does not lower the floor" true
    (Core.Version_gate.seen g ~peer:peer_a = Some v2);
  Alcotest.(check bool) "other peers unaffected" true
    (Core.Version_gate.admit g ~peer:peer_b ~version:v1
     = Core.Version_gate.Admitted)

(* ---- box + host integration on the Figure-1 world ---- *)

let attacker_host (w : Scenario.World.t) =
  let n =
    Net.Topology.add_node w.topo ~domain:w.att ~kind:Net.Topology.Host
      ~name:"mallory"
  in
  Net.Topology.add_link w.topo n.nid w.att_router.nid
    ~bandwidth_bps:100_000_000 ~latency:1_000_000L ();
  Net.Network.recompute_routes w.net;
  Net.Host.attach w.net n

let send_shim host ~dst shim payload =
  Net.Host.send host
    (Net.Packet.make ~protocol:Net.Packet.Shim ~shim
       ~src:(Net.Host.addr host) ~dst payload)

let proto_reject_count (w : Scenario.World.t) family reason =
  Obs.Counter.value
    (Obs.Registry.counter
       (Net.Engine.obs w.Scenario.World.engine)
       ~labels:[ ("reason", reason) ]
       ("core.proto.reject." ^ family))

let test_neutralizer_downgrade_refused () =
  let w = Scenario.World.create () in
  let mallory = attacker_host w in
  (* the obs registry is process-global; assert deltas from here *)
  let base = proto_reject_count w "neutralizer" "downgrade" in
  let frame =
    Core.Shim.encode (Core.Shim.Qos_address_request { lease = 1_000_000L })
  in
  (* v2 contact pins mallory's floor; the later legacy frame is a
     downgrade and must be dropped at the wire layer (no qos handling,
     no silent fallback). A legacy-only peer, by contrast, is fine. *)
  send_shim mallory ~dst:w.anycast frame "";
  Scenario.World.run w;
  Alcotest.(check int) "v2 frame reached the handler (semantic reject)" base
    (proto_reject_count w "neutralizer" "downgrade");
  send_shim mallory ~dst:w.anycast (legacy frame) "";
  Scenario.World.run w;
  Alcotest.(check int) "legacy frame after v2 counted as downgrade" (base + 1)
    (proto_reject_count w "neutralizer" "downgrade");
  let gates_peers =
    List.fold_left
      (fun acc box ->
        acc + Core.Version_gate.peer_count (Core.Neutralizer.version_gate box))
      0 w.Scenario.World.boxes
  in
  Alcotest.(check bool) "some box pinned mallory" true (gates_peers >= 1);
  (* crash amnesia must NOT forget the floor *)
  List.iter
    (fun b -> Core.Neutralizer.crash b; Core.Neutralizer.restart b)
    w.Scenario.World.boxes;
  send_shim mallory ~dst:w.anycast (legacy frame) "";
  Scenario.World.run w;
  Alcotest.(check int) "downgrade still refused after crash/restart" (base + 2)
    (proto_reject_count w "neutralizer" "downgrade")

let test_neutralizer_truncated_counted () =
  let w = Scenario.World.create () in
  let mallory = attacker_host w in
  let base = proto_reject_count w "neutralizer" "truncated" in
  List.iter
    (fun bytes -> send_shim mallory ~dst:w.anycast bytes "x")
    [ ""; "\x02"; "\x02\x00\x00" ];
  Scenario.World.run w;
  Alcotest.(check int) "three truncated frames counted" (base + 3)
    (proto_reject_count w "neutralizer" "truncated");
  (* per-box counters are per-world, not global *)
  let rejected =
    List.fold_left
      (fun acc b -> acc + (Core.Neutralizer.counters b).rejected)
      0 w.Scenario.World.boxes
  in
  Alcotest.(check int) "coarse reject family still fed" 3 rejected

(* A key-setup request whose pubkey blob declares 512 bits but carries
   a 1024-bit modulus. Padding the grant to 64 bytes under that modulus
   raised out of the box's deferred key-setup work and out of
   [World.run]; it must end as one counted bad-pubkey reject, with the
   box still serving the next client. *)
let test_neutralizer_oversized_modulus () =
  let w = Scenario.World.create () in
  let rejected reason =
    Obs.Counter.value
      (Obs.Registry.counter
         (Net.Engine.obs w.Scenario.World.engine)
         ~labels:[ ("reason", reason) ]
         "core.neutralizer.rejected")
  in
  let base = rejected "bad-pubkey" and base_exn = rejected "handler-exception" in
  let blob =
    Crypto.Rsa.public_to_string (Scenario.Keyring.e2e 1).Crypto.Rsa.public
  in
  let buf = Buffer.create (String.length blob) in
  Crypto.Bytes_util.put_u32 buf 512;
  Buffer.add_string buf (String.sub blob 4 (String.length blob - 4));
  let request =
    Core.Shim.encode
      (Core.Shim.Key_setup_request
         { pubkey = Buffer.contents buf; deadline = 0L })
  in
  send_shim w.Scenario.World.ann_host ~dst:w.anycast request "";
  Scenario.World.run w;
  Alcotest.(check int) "one bad-pubkey reject" (base + 1) (rejected "bad-pubkey");
  Alcotest.(check int) "no handler exception" base_exn
    (rejected "handler-exception");
  let client =
    Scenario.World.make_client w w.Scenario.World.ann_host ~seed:"after-bad-key" ()
  in
  let got = ref [] in
  Core.Client.set_receiver client (fun ~peer:_ msg -> got := msg :: !got);
  Core.Client.send_to_name client ~name:"google.example" "hello";
  Scenario.World.run w;
  Alcotest.(check (list string)) "next client echoed" [ "re:hello" ] !got;
  Alcotest.(check int) "next key setup completed" 1
    (Core.Client.counters client).key_setups_completed

(* A key-setup request whose blob carries a 4000-bit public exponent.
   The box used to encrypt the grant under it, at 141x the cost of an
   e = 3 encryption; it must refuse the key at parse time, without one
   RSA encryption, and serve the next client. *)
let test_neutralizer_oversized_exponent () =
  let w = Scenario.World.create () in
  let rejected =
    Obs.Registry.counter
      (Net.Engine.obs w.Scenario.World.engine)
      ~labels:[ ("reason", "bad-pubkey") ]
      "core.neutralizer.rejected"
  in
  let encrypts =
    Obs.Registry.counter Obs.Registry.default "crypto.rsa.encrypts"
  in
  let base = Obs.Counter.value rejected
  and base_enc = Obs.Counter.value encrypts in
  let pub = (Scenario.Keyring.onetime 3).Crypto.Rsa.public in
  let e = Bignum.Nat.of_bytes_be (String.make 500 '\xff') in
  let request =
    Core.Shim.encode
      (Core.Shim.Key_setup_request
         { pubkey = Crypto.Rsa.public_to_string { pub with Crypto.Rsa.e };
           deadline = 0L
         })
  in
  send_shim w.Scenario.World.ann_host ~dst:w.anycast request "";
  Scenario.World.run w;
  Alcotest.(check int) "one bad-pubkey reject" (base + 1)
    (Obs.Counter.value rejected);
  Alcotest.(check int) "no RSA encryption" base_enc (Obs.Counter.value encrypts);
  let client =
    Scenario.World.make_client w w.Scenario.World.ann_host ~seed:"after-big-e" ()
  in
  let got = ref [] in
  Core.Client.set_receiver client (fun ~peer:_ msg -> got := msg :: !got);
  Core.Client.send_to_name client ~name:"google.example" "hello";
  Scenario.World.run w;
  Alcotest.(check (list string)) "next client echoed" [ "re:hello" ] !got;
  Alcotest.(check int) "next key setup completed" 1
    (Core.Client.counters client).key_setups_completed

let test_client_downgrade_refused () =
  let w = Scenario.World.create () in
  let client =
    Scenario.World.make_client w w.Scenario.World.ann_host ~seed:"proto" ()
  in
  ignore client;
  let mallory = attacker_host w in
  let ann = Net.Host.addr w.Scenario.World.ann_host in
  let base = proto_reject_count w "client" "downgrade" in
  let stale = Core.Shim.encode (Core.Shim.Stale_grant { current_epoch = 3 }) in
  send_shim mallory ~dst:ann stale "";
  Scenario.World.run w;
  Alcotest.(check int) "v2 stale-grant not a proto reject" base
    (proto_reject_count w "client" "downgrade");
  send_shim mallory ~dst:ann (legacy stale) "";
  Scenario.World.run w;
  Alcotest.(check int) "legacy after v2 refused by the client" (base + 1)
    (proto_reject_count w "client" "downgrade")

(* ---- rotation x wire epochs (satellite 3) ---- *)

let test_rotation_wire_epochs () =
  let w = Scenario.World.create () in
  let client =
    Scenario.World.make_client w w.Scenario.World.ann_host ~seed:"rot-wire" ()
  in
  let got = ref 0 in
  Core.Client.set_receiver client (fun ~peer:_ _ -> incr got);
  Core.Client.send_to_name client ~name:"google.example" ~app:"web" "one";
  Scenario.World.run w;
  Alcotest.(check int) "exchange works at epoch 0" 1 !got;
  (* one rotation: epoch-0 grants live on in the grace window *)
  Core.Master_key.rotate w.Scenario.World.master;
  Core.Client.send_to_name client ~name:"google.example" ~app:"web" "two";
  Scenario.World.run w;
  Alcotest.(check int) "grace window keeps the old grant" 2 !got;
  let rejected_epoch_before =
    List.fold_left
      (fun acc b -> acc + (Core.Neutralizer.counters b).rejected_epoch)
      0 w.Scenario.World.boxes
  in
  (* second rotation retires epoch 0 entirely: the box must fail closed
     on the old grant (counted unknown-epoch), tell the client via
     Stale_grant, and the client must recover by re-keying *)
  Core.Master_key.rotate w.Scenario.World.master;
  Core.Client.send_to_name client ~name:"google.example" ~app:"web" "three";
  Scenario.World.run w;
  let rejected_epoch =
    List.fold_left
      (fun acc b -> acc + (Core.Neutralizer.counters b).rejected_epoch)
      0 w.Scenario.World.boxes
  in
  Alcotest.(check bool) "retired epoch rejected fail-closed" true
    (rejected_epoch > rejected_epoch_before);
  Core.Client.send_to_name client ~name:"google.example" ~app:"web" "four";
  Scenario.World.run w;
  Alcotest.(check bool) "client re-keyed and traffic resumed" true (!got >= 3);
  Alcotest.(check bool) "grant now at the current epoch" true
    (match
       Core.Keytab.current (Core.Client.keytab client)
         ~neutralizer:w.Scenario.World.anycast
     with
     | Some g ->
       g.Core.Keytab.epoch
       = Core.Master_key.current_epoch w.Scenario.World.master
     | None -> false)

let test_ratchet_forward_secrecy () =
  (* The concrete FS property: epoch keys are a one-way chain, so two
     replicas that rotate in lockstep derive identical future keys, and
     a replica's state after rotation contains nothing that reproduces
     a retired epoch's Ks (here: the retired epoch simply refuses to
     derive, and re-seeding shows the chain is not re-derivable from
     the current epoch alone). *)
  let m = Core.Master_key.of_seed ~seed:"fs" in
  let src = Net.Ipaddr.of_string "10.9.9.9" in
  let nonce = String.make Core.Protocol.nonce_len 'f' in
  let _, ks0 = Core.Master_key.derive_current m ~nonce ~src in
  Core.Master_key.rotate m;
  Core.Master_key.rotate m;
  Alcotest.(check bool) "epoch 0 underivable after two rotations" true
    (Core.Master_key.derive m ~epoch:0 ~nonce ~src = None);
  (* lockstep replica agreement across the ratchet *)
  let a = Core.Master_key.of_seed ~seed:"fs2" in
  let b = Core.Master_key.of_seed ~seed:"fs2" in
  for _ = 1 to 5 do
    Core.Master_key.rotate a;
    Core.Master_key.rotate b
  done;
  let _, ka = Core.Master_key.derive_current a ~nonce ~src in
  let _, kb = Core.Master_key.derive_current b ~nonce ~src in
  Alcotest.(check string) "ratchet is deterministic across replicas" ka kb;
  Alcotest.(check bool) "epoch-5 key differs from epoch-0 key" true
    (ka <> ks0)

(* ---- the >=10k malformed-frame sweep (acceptance criterion) ---- *)

let base_corpus =
  (* one well-formed encoding per kind, plus the refresh-extended data
     shim — the same shapes the golden vectors freeze *)
  List.map Core.Shim.encode
    [ Core.Shim.Key_setup_request { pubkey = String.make 67 'p'; deadline = 5L };
      Core.Shim.Key_setup_response { rsa_ct = String.make 64 'c' };
      sample_data;
      Core.Shim.Data
        { epoch = 255;
          nonce = String.make Core.Protocol.nonce_len 'n';
          enc_addr = "abcd";
          tag = "tagg";
          key_request = true;
          from_customer = false;
          refresh =
            Some
              { Core.Shim.r_epoch = 1;
                r_nonce = String.make Core.Protocol.nonce_len 'r';
                r_key = String.make Core.Protocol.key_len 'k'
              }
        };
      Core.Shim.Return
        { epoch = 3;
          nonce = String.make Core.Protocol.nonce_len 'm';
          initiator = Net.Ipaddr.of_int 0x0a010203
        };
      Core.Shim.Reverse_key_request { outside = Net.Ipaddr.of_int 0x0a010203 };
      Core.Shim.Reverse_key_response
        { epoch = 7;
          nonce = String.make Core.Protocol.nonce_len 'v';
          key = String.make Core.Protocol.key_len 'k'
        };
      Core.Shim.Qos_address_request { lease = 60L };
      Core.Shim.Qos_address_response
        { addr = Net.Ipaddr.of_int 0x0a01ff01; lease = 600L };
      Core.Shim.Offload
        { pubkey = String.make 67 'p';
          epoch = 9;
          nonce = String.make Core.Protocol.nonce_len 'o';
          key = String.make Core.Protocol.key_len 'k';
          requester = Net.Ipaddr.of_int 0x0a010203
        };
      Core.Shim.Stale_grant { current_epoch = 12 }
    ]

(* Mutate with the same primitives the chaos runs use (Fault.Prng +
   Inject.flip_bit) plus truncation and header sweeps. *)
let mutate rng frame =
  let pick n = Fault.Prng.int rng n in
  match pick 6 with
  | 0 -> Fault.Inject.flip_bit rng frame
  | 1 ->
    (* multi-bit mangling *)
    let n = 1 + pick 8 in
    let rec go f i = if i = 0 then f else go (Fault.Inject.flip_bit rng f) (i - 1) in
    go frame n
  | 2 ->
    if String.length frame <= 1 then frame
    else String.sub frame 0 (pick (String.length frame))
  | 3 ->
    (* kind sweep *)
    let b = Bytes.of_string frame in
    if Bytes.length b > 0 then Bytes.set b 0 (Char.chr (pick 256));
    Bytes.to_string b
  | 4 ->
    (* version sweep *)
    if String.length frame >= 4 then with_version_byte frame (pick 256)
    else frame
  | _ ->
    (* appended garbage *)
    frame ^ String.init (1 + pick 6) (fun _ -> Char.chr (pick 256))

let test_fuzz_sweep () =
  let rng = prng_for "proto-sweep" in
  let iterations = 12_000 in
  let gate = Core.Version_gate.create () in
  let peer = Net.Ipaddr.of_int 0x0afe0001 in
  (* the peer has spoken v2: any accepted frame below v2 would be a
     silent downgrade *)
  assert (Core.Version_gate.admit gate ~peer ~version:v2 = Core.Version_gate.Admitted);
  let corpus = Array.of_list base_corpus in
  let accepted = ref 0 and rejected = ref 0 and downgrades_admitted = ref 0 in
  let by_label = Hashtbl.create 16 in
  for _ = 1 to iterations do
    let frame = mutate rng corpus.(Fault.Prng.int rng (Array.length corpus)) in
    match Core.Shim.decode_versioned frame with
    | exception e ->
      Alcotest.failf "decoder raised on %S: %s" frame (Printexc.to_string e)
    | Ok (v, _) ->
      (match Core.Version_gate.admit gate ~peer ~version:v with
       | Core.Version_gate.Admitted ->
         incr accepted;
         if v < v2 then incr downgrades_admitted
       | Core.Version_gate.Downgrade _ -> incr rejected)
    | Error e ->
      incr rejected;
      let label = Core.Shim.error_label e in
      Alcotest.(check bool)
        (Printf.sprintf "label %S is registered" label)
        true
        (List.mem label Core.Shim.error_labels);
      Hashtbl.replace by_label label
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_label label))
  done;
  Alcotest.(check int) "zero downgraded frames accepted" 0 !downgrades_admitted;
  Alcotest.(check int) "every frame accounted for" iterations
    (!accepted + !rejected);
  Alcotest.(check bool) "sweep actually rejected things" true (!rejected > 1000);
  (* the mutation mix must exercise several distinct error classes *)
  Alcotest.(check bool)
    (Printf.sprintf "distinct error labels hit: %d" (Hashtbl.length by_label))
    true
    (Hashtbl.length by_label >= 4)

let test_fuzz_counters_match_rejects () =
  (* Through the real box: every wire-level reject of a mutated frame
     increments a typed core.proto.reject.neutralizer counter — the sum
     of the family equals an independent count of what the decoder (plus
     a synchronized gate replica) refuses. *)
  let w = Scenario.World.create () in
  let mallory = attacker_host w in
  let rng = prng_for "proto-box" in
  let corpus = Array.of_list base_corpus in
  (* the boxes share one anycast; routing is deterministic, so frames
     from mallory all reach one box — but which one doesn't matter, as
     we model the union of the gates *)
  let model = Core.Version_gate.create () in
  let peer = Net.Host.addr mallory in
  let expected = ref 0 in
  let n_frames = 2_000 in
  (* the obs registry is process-global and cumulative (earlier tests in
     this binary already fed the family), so assert on a delta *)
  let family_sum () =
    List.fold_left
      (fun acc (name, _labels, m) ->
        match m with
        | Obs.Registry.Counter c
          when String.starts_with ~prefix:"core.proto.reject.neutralizer" name
          -> acc + Obs.Counter.value c
        | _ -> acc)
      0
      (Obs.Registry.metrics (Net.Engine.obs w.Scenario.World.engine))
  in
  let before = family_sum () in
  for _ = 1 to n_frames do
    let frame = mutate rng corpus.(Fault.Prng.int rng (Array.length corpus)) in
    (match Core.Shim.decode_versioned frame with
     | Ok (v, _) ->
       (match Core.Version_gate.admit model ~peer ~version:v with
        | Core.Version_gate.Admitted -> ()
        | Core.Version_gate.Downgrade _ -> incr expected)
     | Error _ -> incr expected);
    send_shim mallory ~dst:w.anycast frame ""
  done;
  Scenario.World.run w;
  Alcotest.(check int)
    (Printf.sprintf "typed counters cover all %d wire rejects of %d frames"
       !expected n_frames)
    !expected
    (family_sum () - before)

let () =
  Alcotest.run "proto"
    [ ("roundtrip", roundtrip_props);
      ( "errors",
        [ Alcotest.test_case "typed decode errors" `Quick test_typed_errors;
          Alcotest.test_case "encode refuses bad fields" `Quick
            test_encode_refuses_bad_fields
        ] );
      ( "vectors",
        [ Alcotest.test_case "corpus self-check" `Quick test_vectors_self_check;
          Alcotest.test_case "checked-in file byte-stable" `Quick
            test_vectors_file_stable
        ] );
      ( "gate",
        [ Alcotest.test_case "ratchet semantics" `Quick test_gate_ratchet;
          Alcotest.test_case "neutralizer refuses downgrade" `Quick
            test_neutralizer_downgrade_refused;
          Alcotest.test_case "neutralizer counts truncated" `Quick
            test_neutralizer_truncated_counted;
          Alcotest.test_case "neutralizer rejects oversized modulus" `Quick
            test_neutralizer_oversized_modulus;
          Alcotest.test_case "neutralizer rejects oversized exponent" `Quick
            test_neutralizer_oversized_exponent;
          Alcotest.test_case "client refuses downgrade" `Quick
            test_client_downgrade_refused
        ] );
      ( "rotation",
        [ Alcotest.test_case "wire epochs across rotation + stale-grant"
            `Quick test_rotation_wire_epochs;
          Alcotest.test_case "hash-ratchet forward secrecy" `Quick
            test_ratchet_forward_secrecy
        ] );
      ( "fuzz",
        [ Alcotest.test_case "12k mutated frames: no raise, no downgrade"
            `Quick test_fuzz_sweep;
          Alcotest.test_case "typed counters equal wire rejects" `Quick
            test_fuzz_counters_match_rejects
        ] )
    ]
