(* Unit tests for the neutralizer protocol pieces: shim codec, master-key
   derivation and rotation, the stateless datapath transforms, the client
   keytab, end-to-end sessions and multihoming selection. *)

let prop name gen print f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name ~print gen f)

let addr s = Net.Ipaddr.of_string s
let nonce_of_seed seed = Crypto.Drbg.generate (Crypto.Drbg.create ~seed) Core.Protocol.nonce_len
let key16 c = String.make Core.Protocol.key_len c

let drbg_rng seed =
  let d = Crypto.Drbg.create ~seed in
  fun n -> Crypto.Drbg.generate d n

(* Registers a session under [secret], deriving its keys. *)
let register t ~secret ~peer ~now =
  Core.Session.register t ~secret ~keys:(Crypto.Seal.keys secret) ~peer ~now

(* ---- shim codec ---- *)

let gen_bytes n = QCheck2.Gen.(string_size ~gen:char (return n))

let gen_shim =
  let open QCheck2.Gen in
  let gen_addr = map (fun i -> Net.Ipaddr.of_int (i land 0xffffffff)) nat in
  let gen_refresh =
    let* r_epoch = int_bound 255 in
    let* r_nonce = gen_bytes Core.Protocol.nonce_len in
    let* r_key = gen_bytes Core.Protocol.key_len in
    return { Core.Shim.r_epoch; r_nonce; r_key }
  in
  let gen_data =
    let* epoch = int_bound 255 in
    let* nonce = gen_bytes Core.Protocol.nonce_len in
    let* enc_addr = gen_bytes 4 in
    let* tag = gen_bytes Core.Protocol.tag_len in
    let* key_request = bool in
    let* from_customer = bool in
    let* refresh = option gen_refresh in
    return
      (Core.Shim.Data
         { epoch; nonce; enc_addr; tag; key_request; from_customer; refresh })
  in
  oneof
    [ map2
        (fun pubkey deadline ->
          Core.Shim.Key_setup_request
            { pubkey; deadline = Int64.of_int deadline })
        (string_size ~gen:char (int_bound 100))
        (int_bound 1_000_000_000);
      map (fun rsa_ct -> Core.Shim.Key_setup_response { rsa_ct })
        (string_size ~gen:char (int_bound 100));
      gen_data;
      (let* epoch = int_bound 255 in
       let* nonce = gen_bytes Core.Protocol.nonce_len in
       let* initiator = gen_addr in
       return (Core.Shim.Return { epoch; nonce; initiator }));
      map (fun outside -> Core.Shim.Reverse_key_request { outside }) gen_addr;
      (let* epoch = int_bound 255 in
       let* nonce = gen_bytes Core.Protocol.nonce_len in
       let* key = gen_bytes Core.Protocol.key_len in
       return (Core.Shim.Reverse_key_response { epoch; nonce; key }));
      map (fun l -> Core.Shim.Qos_address_request { lease = Int64.of_int l }) nat;
      (let* a = gen_addr in
       let* l = nat in
       return (Core.Shim.Qos_address_response { addr = a; lease = Int64.of_int l }));
      (let* pubkey = string_size ~gen:char (int_bound 100) in
       let* epoch = int_bound 255 in
       let* nonce = gen_bytes Core.Protocol.nonce_len in
       let* key = gen_bytes Core.Protocol.key_len in
       let* requester = gen_addr in
       return (Core.Shim.Offload { pubkey; epoch; nonce; key; requester }));
      map
        (fun current_epoch -> Core.Shim.Stale_grant { current_epoch })
        (int_bound 255)
    ]

let shim_props =
  [ prop "shim codec roundtrip" gen_shim
      (fun s -> Printf.sprintf "kind=%d" (Core.Shim.kind_tag s))
      (fun shim -> Core.Shim.decode (Core.Shim.encode shim) = Some shim);
    prop "decode never raises on junk"
      QCheck2.Gen.(string_size ~gen:char (int_bound 60))
      (Printf.sprintf "%S")
      (fun junk ->
        match Core.Shim.decode junk with Some _ | None -> true)
  ]

let test_data_shim_wire_size () =
  let d =
    Core.Shim.Data
      { epoch = 1;
        nonce = nonce_of_seed "n";
        enc_addr = "\x01\x02\x03\x04";
        tag = "\xaa\xbb\xcc\xdd";
        key_request = false;
        from_customer = false;
        refresh = None
      }
  in
  Alcotest.(check int) "20-byte data shim" Core.Shim.data_shim_len
    (String.length (Core.Shim.encode d));
  (* and the paper's 112-byte total: 20 IP + 8 transport + 20 shim + 64 *)
  let p =
    Net.Packet.make ~protocol:Net.Packet.Shim
      ~shim:(Core.Shim.encode d)
      ~src:(addr "10.1.0.2") ~dst:(addr "10.2.255.1")
      (String.make 64 'x')
  in
  Alcotest.(check int) "112 bytes" 112 (Net.Packet.size p)

let test_shim_bad_sizes () =
  Alcotest.check_raises "bad nonce"
    (Invalid_argument "Shim.encode: bad data field sizes") (fun () ->
      ignore
        (Core.Shim.encode
           (Core.Shim.Data
              { epoch = 0;
                nonce = "short";
                enc_addr = "\x00\x00\x00\x00";
                tag = "\x00\x00\x00\x00";
                key_request = false;
                from_customer = false;
                refresh = None
              })))

(* ---- master key ---- *)

let test_master_derive_deterministic () =
  let m = Core.Master_key.of_seed ~seed:"km" in
  let n = nonce_of_seed "a" in
  let src = addr "10.1.0.2" in
  let e1, k1 = Core.Master_key.derive_current m ~nonce:n ~src in
  let e2, k2 = Core.Master_key.derive_current m ~nonce:n ~src in
  Alcotest.(check int) "epoch stable" e1 e2;
  Alcotest.(check string) "key stable" k1 k2;
  Alcotest.(check int) "key length" Core.Protocol.key_len (String.length k1);
  let _, k3 = Core.Master_key.derive_current m ~nonce:(nonce_of_seed "b") ~src in
  Alcotest.(check bool) "nonce separates" true (k1 <> k3);
  let _, k4 = Core.Master_key.derive_current m ~nonce:n ~src:(addr "10.1.0.3") in
  Alcotest.(check bool) "src separates" true (k1 <> k4)

let test_master_replicas_agree () =
  let m1 = Core.Master_key.of_seed ~seed:"shared" in
  let m2 = Core.Master_key.of_seed ~seed:"shared" in
  let n = nonce_of_seed "x" in
  let src = addr "10.1.0.9" in
  let _, k1 = Core.Master_key.derive_current m1 ~nonce:n ~src in
  Alcotest.(check (option string)) "replica derives same key" (Some k1)
    (Core.Master_key.derive m2 ~epoch:0 ~nonce:n ~src);
  (* and still after synchronized rotation *)
  Core.Master_key.rotate m1;
  Core.Master_key.rotate m2;
  let e, k1' = Core.Master_key.derive_current m1 ~nonce:n ~src in
  Alcotest.(check int) "epoch 1" 1 e;
  Alcotest.(check (option string)) "rotated replicas agree" (Some k1')
    (Core.Master_key.derive m2 ~epoch:1 ~nonce:n ~src)

let test_master_rotation_grace () =
  let m = Core.Master_key.of_seed ~seed:"rot" in
  let n = nonce_of_seed "x" in
  let src = addr "10.1.0.2" in
  let _, k0 = Core.Master_key.derive_current m ~nonce:n ~src in
  Core.Master_key.rotate m;
  Alcotest.(check (option string)) "previous epoch grace" (Some k0)
    (Core.Master_key.derive m ~epoch:0 ~nonce:n ~src);
  Core.Master_key.rotate m;
  Alcotest.(check (option string)) "expired after two rotations" None
    (Core.Master_key.derive m ~epoch:0 ~nonce:n ~src);
  Alcotest.(check bool) "future epoch rejected" true
    (Core.Master_key.derive m ~epoch:77 ~nonce:n ~src = None)

(* ---- datapath ---- *)

let test_blind_roundtrip () =
  let ks = key16 'k' in
  let n = nonce_of_seed "n" in
  let target = addr "10.2.0.55" in
  let enc, tag = Core.Datapath.blind ~ks ~epoch:3 ~nonce:n target in
  Alcotest.(check int) "enc 4 bytes" 4 (String.length enc);
  Alcotest.(check int) "tag bytes" Core.Protocol.tag_len (String.length tag);
  Alcotest.(check bool) "blinded" true (enc <> Net.Ipaddr.to_octets target);
  Alcotest.(check (option string)) "roundtrip"
    (Some (Net.Ipaddr.to_string target))
    (Option.map Net.Ipaddr.to_string
       (Core.Datapath.unblind ~ks ~epoch:3 ~nonce:n ~enc_addr:enc ~tag))

let test_unblind_rejects () =
  let ks = key16 'k' in
  let n = nonce_of_seed "n" in
  let enc, tag = Core.Datapath.blind ~ks ~epoch:3 ~nonce:n (addr "10.2.0.55") in
  Alcotest.(check bool) "wrong key" true
    (Core.Datapath.unblind ~ks:(key16 'x') ~epoch:3 ~nonce:n ~enc_addr:enc ~tag = None);
  Alcotest.(check bool) "wrong epoch" true
    (Core.Datapath.unblind ~ks ~epoch:4 ~nonce:n ~enc_addr:enc ~tag = None);
  Alcotest.(check bool) "wrong nonce" true
    (Core.Datapath.unblind ~ks ~epoch:3 ~nonce:(nonce_of_seed "m") ~enc_addr:enc ~tag = None);
  let tampered = Crypto.Bytes_util.xor enc "\x01\x00\x00\x00" in
  Alcotest.(check bool) "tampered address" true
    (Core.Datapath.unblind ~ks ~epoch:3 ~nonce:n ~enc_addr:tampered ~tag = None)

let datapath_props =
  [ prop "blind/unblind over random addresses"
      QCheck2.Gen.(tup2 nat (gen_bytes Core.Protocol.nonce_len))
      (fun (i, n) -> Printf.sprintf "%d %S" i n)
      (fun (i, n) ->
        let target = Net.Ipaddr.of_int (i land 0xffffffff) in
        let ks = key16 'p' in
        let enc, tag = Core.Datapath.blind ~ks ~epoch:7 ~nonce:n target in
        Core.Datapath.unblind ~ks ~epoch:7 ~nonce:n ~enc_addr:enc ~tag
        = Some target);
    prop "session transforms byte-identical to stateless"
      QCheck2.Gen.(tup3 nat (int_bound 255) (gen_bytes Core.Protocol.nonce_len))
      (fun (i, e, n) -> Printf.sprintf "%d %d %S" i e n)
      (fun (i, epoch, n) ->
        let target = Net.Ipaddr.of_int (i land 0xffffffff) in
        let ks = key16 's' in
        let s = Core.Datapath.make_session ~ks ~epoch ~nonce:n in
        let enc, tag = Core.Datapath.blind ~ks ~epoch ~nonce:n target in
        let enc', tag' = Core.Datapath.blind_session s target in
        enc = enc' && tag = tag'
        (* ...and the two unblind paths accept each other's output. *)
        && Core.Datapath.unblind_session s ~enc_addr:enc ~tag = Some target
        && Core.Datapath.unblind ~ks ~epoch ~nonce:n ~enc_addr:enc' ~tag:tag'
           = Some target);
    prop "session unblind rejects tampered bytes"
      QCheck2.Gen.(tup2 nat (gen_bytes Core.Protocol.nonce_len))
      (fun (i, n) -> Printf.sprintf "%d %S" i n)
      (fun (i, n) ->
        let target = Net.Ipaddr.of_int (i land 0xffffffff) in
        let s = Core.Datapath.make_session ~ks:(key16 's') ~epoch:7 ~nonce:n in
        let enc, tag = Core.Datapath.blind_session s target in
        let flip str pos =
          String.mapi
            (fun j c -> if j = pos then Char.chr (Char.code c lxor 1) else c)
            str
        in
        Core.Datapath.unblind_session s ~enc_addr:(flip enc 0) ~tag = None
        && Core.Datapath.unblind_session s ~enc_addr:enc ~tag:(flip tag 0)
           = None)
  ]

let test_key_setup_roundtrip () =
  let master = Core.Master_key.of_seed ~seed:"setup" in
  let rng = drbg_rng "setup" in
  let onetime = Scenario.Keyring.onetime 1 in
  let src = addr "10.1.0.2" in
  match
    Core.Datapath.key_setup_response ~master ~rng ~src
      ~pubkey_blob:(Crypto.Rsa.public_to_string onetime.Crypto.Rsa.public)
  with
  | None -> Alcotest.fail "rejected"
  | Some (shim_bytes, (epoch, nonce, ks)) ->
    (match Core.Shim.decode shim_bytes with
     | Some (Core.Shim.Key_setup_response { rsa_ct }) ->
       (match Core.Datapath.open_key_setup_response ~onetime ~rsa_ct with
        | Some (e, n, k) ->
          Alcotest.(check int) "epoch" epoch e;
          Alcotest.(check string) "nonce" nonce n;
          Alcotest.(check string) "key" ks k;
          (* the grant must be the stateless derivation *)
          Alcotest.(check (option string)) "stateless rederivation" (Some k)
            (Core.Master_key.derive master ~epoch ~nonce ~src)
        | None -> Alcotest.fail "could not open response")
     | _ -> Alcotest.fail "not a key setup response")

let test_key_setup_rejects_garbage () =
  let master = Core.Master_key.of_seed ~seed:"setup" in
  let rng = drbg_rng "setup2" in
  Alcotest.(check bool) "garbage pubkey" true
    (Core.Datapath.key_setup_response ~master ~rng ~src:(addr "10.1.0.2")
       ~pubkey_blob:"not a key"
     = None)

let forwarded_packet master rng ~key_request =
  let src = addr "10.1.0.2" in
  let customer = addr "10.2.0.77" in
  let anycast = addr "10.2.255.1" in
  let nonce = nonce_of_seed "fwd" in
  let epoch, ks = Core.Master_key.derive_current master ~nonce ~src in
  let enc_addr, tag = Core.Datapath.blind ~ks ~epoch ~nonce customer in
  let data =
    { Core.Shim.epoch; nonce; enc_addr; tag; key_request;
      from_customer = false; refresh = None }
  in
  let p =
    Net.Packet.make ~protocol:Net.Packet.Shim
      ~shim:(Core.Shim.encode (Core.Shim.Data data))
      ~src ~dst:anycast ~dscp:46 ~flow_id:9 "payload"
  in
  (Core.Datapath.forward_outside_data ~master ~rng ~self:anycast p data, customer, src, anycast)

let test_forward_outside () =
  let master = Core.Master_key.of_seed ~seed:"fwd" in
  let rng = drbg_rng "fwd" in
  match forwarded_packet master rng ~key_request:false with
  | Core.Datapath.Forwarded p, customer, src, anycast ->
    Alcotest.(check string) "re-addressed to customer"
      (Net.Ipaddr.to_string customer) (Net.Ipaddr.to_string p.dst);
    Alcotest.(check string) "source preserved (Fig 2 pkt 4)"
      (Net.Ipaddr.to_string src) (Net.Ipaddr.to_string p.src);
    Alcotest.(check int) "dscp preserved (3.4)" 46 p.dscp;
    Alcotest.(check int) "meta intact" 9 p.meta.flow_id;
    (match Option.map Core.Shim.decode p.shim with
     | Some (Some (Core.Shim.Data d)) ->
       Alcotest.(check bool) "no refresh stamped" true (d.refresh = None);
       Alcotest.(check string) "carries neutralizer addr"
         (Net.Ipaddr.to_octets anycast) d.enc_addr
     | _ -> Alcotest.fail "bad forwarded shim")
  | Core.Datapath.Rejected r, _, _, _ -> Alcotest.failf "rejected: %s" r

let test_forward_stamps_refresh () =
  let master = Core.Master_key.of_seed ~seed:"fwd" in
  let rng = drbg_rng "fwd2" in
  match forwarded_packet master rng ~key_request:true with
  | Core.Datapath.Forwarded p, _, src, _ ->
    (match Option.map Core.Shim.decode p.shim with
     | Some (Some (Core.Shim.Data { refresh = Some r; _ })) ->
       (* The stamped grant must itself be a valid stateless derivation. *)
       Alcotest.(check (option string)) "grant rederivable" (Some r.r_key)
         (Core.Master_key.derive master ~epoch:r.r_epoch ~nonce:r.r_nonce ~src)
     | _ -> Alcotest.fail "no refresh stamped")
  | Core.Datapath.Rejected r, _, _, _ -> Alcotest.failf "rejected: %s" r

let test_forward_rejects_unknown_epoch () =
  let master = Core.Master_key.of_seed ~seed:"fwd" in
  let rng = drbg_rng "fwd3" in
  let src = addr "10.1.0.2" in
  let nonce = nonce_of_seed "x" in
  let data =
    { Core.Shim.epoch = 200; nonce; enc_addr = "\x00\x00\x00\x00";
      tag = "\x00\x00\x00\x00"; key_request = false; from_customer = false;
      refresh = None }
  in
  let p =
    Net.Packet.make ~protocol:Net.Packet.Shim
      ~shim:(Core.Shim.encode (Core.Shim.Data data))
      ~src ~dst:(addr "10.2.255.1") ""
  in
  match Core.Datapath.forward_outside_data ~master ~rng ~self:(addr "10.2.255.1") p data with
  | Core.Datapath.Rejected "unknown-epoch" -> ()
  | Core.Datapath.Rejected r -> Alcotest.failf "wrong reason %s" r
  | Core.Datapath.Forwarded _ -> Alcotest.fail "accepted bad epoch"

let test_return_path () =
  let master = Core.Master_key.of_seed ~seed:"ret" in
  let initiator = addr "10.1.0.2" in
  let customer = addr "10.2.0.77" in
  let anycast = addr "10.2.255.1" in
  let nonce = nonce_of_seed "r" in
  let epoch, ks = Core.Master_key.derive_current master ~nonce ~src:initiator in
  let p =
    Net.Packet.make ~protocol:Net.Packet.Shim
      ~shim:(Core.Shim.encode (Core.Shim.Return { epoch; nonce; initiator }))
      ~src:customer ~dst:anycast ~dscp:12 "reply-bytes"
  in
  match Core.Datapath.forward_return_data ~master ~self:anycast p ~epoch ~nonce ~initiator with
  | Core.Datapath.Rejected r -> Alcotest.failf "rejected: %s" r
  | Core.Datapath.Forwarded out ->
    Alcotest.(check string) "src is anycast" (Net.Ipaddr.to_string anycast)
      (Net.Ipaddr.to_string out.src);
    Alcotest.(check string) "dst is initiator" (Net.Ipaddr.to_string initiator)
      (Net.Ipaddr.to_string out.dst);
    Alcotest.(check int) "dscp preserved" 12 out.dscp;
    (match Option.map Core.Shim.decode out.shim with
     | Some (Some (Core.Shim.Data d)) ->
       Alcotest.(check bool) "marked from customer" true d.from_customer;
       (* The initiator can unblind the customer's address with Ks. *)
       Alcotest.(check (option string)) "unblinds to customer"
         (Some (Net.Ipaddr.to_string customer))
         (Option.map Net.Ipaddr.to_string
            (Core.Datapath.unblind ~ks ~epoch ~nonce ~enc_addr:d.enc_addr ~tag:d.tag))
     | _ -> Alcotest.fail "bad return shim")

(* ---- keytab ---- *)

let grant epoch seed at =
  { Core.Keytab.epoch; nonce = nonce_of_seed seed; key = key16 'g';
    obtained_at = at }

let test_keytab () =
  let open Core in
  let t = Keytab.create () in
  let n1 = addr "10.2.255.1" and n2 = addr "10.5.255.1" in
  Keytab.put t ~neutralizer:n1 (grant 0 "a" 100L);
  Keytab.put t ~neutralizer:n2 (grant 0 "b" 200L);
  (match Keytab.current t ~neutralizer:n1 with
   | Some g -> Alcotest.(check string) "per-neutralizer" (nonce_of_seed "a") g.Keytab.nonce
   | None -> Alcotest.fail "missing");
  Keytab.put t ~neutralizer:n1 (grant 0 "c" 300L);
  Alcotest.(check (option string)) "replaced"
    (Some (nonce_of_seed "c"))
    (Option.map (fun g -> g.Keytab.nonce) (Keytab.current t ~neutralizer:n1));
  Keytab.invalidate t ~neutralizer:n1;
  Alcotest.(check bool) "invalidated" true (Keytab.current t ~neutralizer:n1 = None);
  Alcotest.(check (list string)) "other neutralizer kept"
    [ nonce_of_seed "b" ]
    (List.map (fun (_, g) -> g.Keytab.nonce) (Keytab.grants t));
  Keytab.clear t;
  Alcotest.(check bool) "cleared" true (Keytab.grants t = [])

let test_keytab_session_cache () =
  let open Core in
  let t = Keytab.create () in
  let n1 = addr "10.2.255.1" in
  let g = grant 3 "a" 100L in
  Keytab.put t ~neutralizer:n1 g;
  let s1 = Keytab.session t g in
  (* Same grant -> the same precomputed session, not an equal copy. *)
  Alcotest.(check bool) "memoized" true (s1 == Keytab.session t g);
  let dest = addr "10.2.0.55" in
  let enc, tag = Datapath.blind_session s1 dest in
  let enc', tag' =
    Datapath.blind ~ks:g.Keytab.key ~epoch:g.Keytab.epoch
      ~nonce:g.Keytab.nonce dest
  in
  Alcotest.(check string) "enc matches stateless" enc' enc;
  Alcotest.(check string) "tag matches stateless" tag' tag;
  (* Invalidating the grant evicts its cached session; installing it
     again builds a fresh one. *)
  Keytab.invalidate t ~neutralizer:n1;
  Keytab.put t ~neutralizer:n1 g;
  Alcotest.(check bool) "evicted with grant" true
    (s1 != Keytab.session t g);
  (* A replaced grant still yields a correct session, but no memo
     entry. *)
  Keytab.put t ~neutralizer:n1 (grant 3 "b" 200L);
  let stale = Keytab.session t g in
  Alcotest.(check bool) "replaced grant not memoized" true
    (stale != Keytab.session t g);
  Alcotest.(check string) "replaced grant still blinds" enc
    (fst (Datapath.blind_session stale dest))

let test_keytab_sessions_evict () =
  let open Core in
  let t = Keytab.create () in
  let n1 = addr "10.2.255.1" in
  List.iter
    (fun seed ->
      let g = grant 3 seed 100L in
      Keytab.put t ~neutralizer:n1 g;
      ignore (Keytab.session t g))
    [ "a"; "b"; "c"; "d"; "e" ];
  Alcotest.(check int) "one session per neutralizer" 1 (Keytab.session_count t);
  Keytab.invalidate t ~neutralizer:n1;
  Alcotest.(check int) "none after invalidate" 0 (Keytab.session_count t)

(* ---- session ---- *)

let test_inner_codec () =
  let open Core in
  let inner =
    { Session.refresh =
        Some { Shim.r_epoch = 4; r_nonce = nonce_of_seed "r"; r_key = key16 'k' };
      reverse_key = Some (9, nonce_of_seed "v", key16 'w');
      app = "application payload"
    }
  in
  Alcotest.(check bool) "roundtrip full" true
    (Session.decode_inner (Session.encode_inner inner) = Some inner);
  let plain = Session.plain "just text" in
  Alcotest.(check bool) "roundtrip plain" true
    (Session.decode_inner (Session.encode_inner plain) = Some plain);
  Alcotest.(check bool) "junk" true (Session.decode_inner "" = None)

let test_session_lifecycle () =
  let open Core in
  let key = Scenario.Keyring.e2e 3 in
  let rng = drbg_rng "sess" in
  let initiator_table = Session.create_table () in
  let responder_table = Session.create_table () in
  let peer = addr "10.2.0.3" in
  let secret = rng 32 in
  let keys = Crypto.Seal.keys secret in
  let s_client = Session.register initiator_table ~secret ~keys ~peer ~now:0L in
  let first =
    Session.initial_payload ~rng ~peer_key:key.Crypto.Rsa.public ~secret ~keys
      (Session.plain "request-1")
  in
  (match Session.accept_initial ~private_key:key first with
   | Some (secret', keys', inner) ->
     Alcotest.(check string) "secret recovered" secret secret';
     Alcotest.(check string) "app" "request-1" inner.Session.app;
     let s_server =
       Session.register responder_table ~secret:secret' ~keys:keys'
         ~peer:(addr "10.1.0.2") ~now:0L
     in
     Alcotest.(check string) "same sid" s_client.Session.sid s_server.Session.sid
   | None -> Alcotest.fail "accept failed");
  (* steady state *)
  let d = Session.data_payload ~rng s_client (Session.plain "request-2") in
  (match Session.open_data responder_table ~now:5L d with
   | Some (_, inner) -> Alcotest.(check string) "data" "request-2" inner.Session.app
   | None -> Alcotest.fail "open failed");
  (* tamper *)
  let broken = Bytes.of_string d in
  Bytes.set broken (Bytes.length broken - 1) '\xff';
  Alcotest.(check bool) "tamper rejected" true
    (Session.open_data responder_table ~now:6L (Bytes.to_string broken) = None);
  (* unknown sid *)
  let other = register (Session.create_table ()) ~secret:(rng 32) ~peer ~now:0L in
  let d2 = Session.data_payload ~rng other (Session.plain "x") in
  Alcotest.(check bool) "unknown sid" true
    (Session.open_data responder_table ~now:7L d2 = None);
  (* lookup by peer *)
  Alcotest.(check bool) "find_by_peer" true
    (Session.find_by_peer initiator_table ~peer <> None)

let test_session_expiry () =
  let open Core in
  let rng = drbg_rng "exp" in
  let t = Session.create_table () in
  let s1 = register t ~secret:(rng 32) ~peer:(addr "10.2.0.1") ~now:0L in
  let s2 = register t ~secret:(rng 32) ~peer:(addr "10.2.0.2") ~now:0L in
  (* keep s2 warm *)
  let d = Session.data_payload ~rng s2 (Session.plain "keepalive") in
  ignore (Session.open_data t ~now:900L d);
  let stale = Session.expire t ~now:1000L ~idle:500L in
  Alcotest.(check int) "one expired" 1 (List.length stale);
  Alcotest.(check bool) "the idle one" true
    ((List.hd stale).Session.sid = s1.Session.sid);
  Alcotest.(check int) "one left" 1 (Session.count t);
  Alcotest.(check bool) "warm one findable" true
    (Session.find t ~sid:s2.Session.sid <> None);
  Alcotest.(check bool) "peer index cleaned" true
    (Session.find_by_peer t ~peer:(addr "10.2.0.1") = None)

let test_session_churn () =
  let open Core in
  (* Thousands of register/expire cycles with overlapping lifetimes: the
     table must stay bounded (both indexes), every registration must get
     a fresh sid, and a full drain must leave nothing behind. *)
  let rng = drbg_rng "churn" in
  let t = Session.create_table () in
  let seen = Hashtbl.create 4096 in
  let cycles = 2000 in
  let registered = ref [] in
  for i = 0 to cycles - 1 do
    let now = Int64.of_int (i * 300) in
    let peer = addr (Printf.sprintf "10.2.%d.%d" (i / 250) (1 + (i mod 250))) in
    let s = register t ~secret:(rng 32) ~peer ~now in
    if Hashtbl.mem seen s.Session.sid then
      Alcotest.failf "sid reused at cycle %d" i;
    Hashtbl.replace seen s.Session.sid ();
    registered := (s.Session.sid, peer) :: !registered;
    ignore (Session.expire t ~now ~idle:1000L);
    (* idle window 1000 / spacing 300: at most 4-5 live at once *)
    if Session.count t > 5 then
      Alcotest.failf "table leak: %d live at cycle %d" (Session.count t) i
  done;
  Alcotest.(check int) "every sid distinct" cycles (Hashtbl.length seen);
  ignore (Session.expire t ~now:Int64.max_int ~idle:1000L);
  Alcotest.(check int) "drained" 0 (Session.count t);
  List.iter
    (fun (sid, peer) ->
      if Session.find t ~sid <> None then Alcotest.failf "sid index leak";
      if Session.find_by_peer t ~peer <> None then
        Alcotest.failf "peer index leak")
    !registered

let test_server_gc_churn () =
  let open Core in
  (* Same churn through the server agent's periodic GC surface: sessions
     registered into a live server's table are collected by [Server.gc]
     on the engine clock, with nothing left after the final sweep. *)
  let topo = Net.Topology.create () in
  let d = Net.Topology.add_domain topo ~name:"d" ~prefix:"10.9.0.0/16" in
  let n =
    Net.Topology.add_node topo ~domain:d ~kind:Net.Topology.Host ~name:"srv"
  in
  let eng = Net.Engine.create () in
  let net = Net.Network.create eng topo in
  let host = Net.Host.attach net n in
  let srv =
    Server.create host
      ~private_key:(Scenario.Keyring.e2e 3)
      ~neutralizer:(addr "10.9.255.1") ~seed:"gc-churn" ()
  in
  let rng = drbg_rng "gc-churn" in
  let tbl = Server.sessions srv in
  let collected = ref 0 and max_live = ref 0 in
  let cycles = 2000 in
  for i = 0 to cycles - 1 do
    ignore
      (Net.Engine.schedule_s eng
         ~delay_s:(0.001 *. float_of_int i)
         (fun () ->
           let peer =
             addr (Printf.sprintf "10.2.%d.%d" (i / 250) (1 + (i mod 250)))
           in
           ignore
             (register tbl ~secret:(rng 32) ~peer ~now:(Net.Engine.now eng));
           collected := !collected + Server.gc srv ~idle:5_000_000L;
           max_live := max !max_live (Session.count tbl)))
  done;
  ignore
    (Net.Engine.schedule_s eng ~delay_s:(0.001 *. float_of_int cycles +. 1.0)
       (fun () -> collected := !collected + Server.gc srv ~idle:5_000_000L));
  Net.Engine.run eng;
  (* idle window 5 ms / spacing 1 ms: live set stays a handful *)
  Alcotest.(check bool) "bounded while churning" true (!max_live <= 8);
  Alcotest.(check int) "all collected eventually" cycles !collected;
  Alcotest.(check int) "nothing left" 0 (Session.count tbl)

let test_accept_initial_wrong_key () =
  let open Core in
  let key = Scenario.Keyring.e2e 3 in
  let other = Scenario.Keyring.e2e 4 in
  let rng = drbg_rng "sess2" in
  let secret = rng 32 in
  let first =
    Session.initial_payload ~rng ~peer_key:key.Crypto.Rsa.public ~secret
      ~keys:(Crypto.Seal.keys secret) (Session.plain "x")
  in
  Alcotest.(check bool) "wrong key" true
    (Session.accept_initial ~private_key:other first = None)

(* The wire bytes of both payload kinds under a fixed rng, as the
   derive-per-message implementation produced them: deriving a secret's
   keys once changes no byte. *)
let test_session_bytes_pinned () =
  let open Core in
  let key = Scenario.Keyring.onetime 0 in
  let rng = drbg_rng "pin-session" in
  let secret = rng 32 in
  let keys = Crypto.Seal.keys secret in
  let s =
    Session.register (Session.create_table ()) ~secret ~keys
      ~peer:(addr "10.2.0.3") ~now:0L
  in
  let hex = Crypto.Bytes_util.to_hex in
  Alcotest.(check string) "data payload"
    "44fd3de20d987913278edab7237cbd15392a01488e65afa2df61b61c24888b0079966fa8\
     696a904d607c4571589a5ed6b102b9e12a6ccc91ae1ad77f2336743c8ae8cf70c4"
    (hex (Session.data_payload ~rng s (Session.plain "pinned steady-state request")));
  Alcotest.(check string) "initial payload"
    "4e53000000407868be1f8b943db51ef4ee1f6ff0a6765c50614872f08bf1ab2ea0ea9ddc\
     a8ee58a3be23793fc8e3baa059fd70f4b259c392b391d1f90185f168bc7d9874f1e769ba\
     32d9b8979aa00cda1f805eff936e94f249400dd5aba9243c173274b51d46d2c8affef45a\
     165cd5f25bdbc719887faefa08eb4b"
    (hex
       (Session.initial_payload ~rng ~peer_key:key.Crypto.Rsa.public ~secret ~keys
          (Session.plain "pinned first request")))

(* Steady state derives nothing: sealing and opening on an established
   pair expand no AES key. The rng is not the DRBG, which expands a key
   per draw. *)
let test_session_steady_state_no_expansion () =
  let open Core in
  let expansions =
    Obs.Registry.counter Obs.Registry.default "crypto.aes.key_expansions"
  in
  let ctr = ref 0 in
  let rng n =
    incr ctr;
    String.init n (fun i -> Char.chr (((!ctr * 31) + i) land 0xff))
  in
  let secret = rng 32 in
  let a = Session.create_table () and b = Session.create_table () in
  let sa = register a ~secret ~peer:(addr "10.1.0.2") ~now:0L in
  let sb = register b ~secret ~peer:(addr "10.2.0.3") ~now:0L in
  let delta f =
    let before = Obs.Counter.value expansions in
    let r = f () in
    (r, Obs.Counter.value expansions - before)
  in
  for i = 1 to 3 do
    let req, d1 =
      delta (fun () -> Session.data_payload ~rng sa (Session.plain "ping"))
    in
    Alcotest.(check int) (Printf.sprintf "seal %d" i) 0 d1;
    let opened, d2 = delta (fun () -> Session.open_data b ~now:1L req) in
    Alcotest.(check int) (Printf.sprintf "open %d" i) 0 d2;
    (match opened with
     | Some (s, inner) ->
       Alcotest.(check bool) "right session" true (s == sb);
       Alcotest.(check string) "app" "ping" inner.Session.app
     | None -> Alcotest.fail "open failed");
    let rep, d3 =
      delta (fun () -> Session.data_payload ~rng sb (Session.plain "pong"))
    in
    let back, d4 = delta (fun () -> Session.open_data a ~now:2L rep) in
    Alcotest.(check int) (Printf.sprintf "reply %d" i) 0 (d3 + d4);
    Alcotest.(check bool) "reply opens" true (back <> None)
  done

(* ---- multihome ---- *)

let test_multihome_strategies () =
  let open Core in
  let a = addr "10.2.255.1" and b = addr "10.5.255.1" in
  let rng = drbg_rng "mh" in
  let first = Multihome.create ~strategy:Multihome.First ~rng () in
  Alcotest.(check (option string)) "first" (Some "10.2.255.1")
    (Option.map Net.Ipaddr.to_string (Multihome.choose first ~now:0L [ a; b ]));
  let rr = Multihome.create ~strategy:Multihome.Round_robin ~rng () in
  let picks = List.init 4 (fun _ -> Option.get (Multihome.choose rr ~now:0L [ a; b ])) in
  Alcotest.(check (list string)) "alternates"
    [ "10.2.255.1"; "10.5.255.1"; "10.2.255.1"; "10.5.255.1" ]
    (List.map Net.Ipaddr.to_string picks);
  let pref = Multihome.create ~strategy:(Multihome.Prefer b) ~rng () in
  Alcotest.(check (option string)) "prefer" (Some "10.5.255.1")
    (Option.map Net.Ipaddr.to_string (Multihome.choose pref ~now:0L [ a; b ]));
  Alcotest.(check bool) "empty" true (Multihome.choose pref ~now:0L [] = None)

let test_multihome_weighted_distribution () =
  let open Core in
  let a = addr "10.2.255.1" and b = addr "10.5.255.1" in
  let rng = drbg_rng "mh-w" in
  let w = Multihome.create ~strategy:(Multihome.Weighted [ (a, 0.8); (b, 0.2) ]) ~rng () in
  let counts = Hashtbl.create 2 in
  for _ = 1 to 2000 do
    let pick = Option.get (Multihome.choose w ~now:0L [ a; b ]) in
    Hashtbl.replace counts pick (1 + Option.value ~default:0 (Hashtbl.find_opt counts pick))
  done;
  let ca = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts a)) in
  Alcotest.(check bool) "roughly 80%" true (ca > 1500.0 && ca < 1700.0)

let test_multihome_failure_backoff () =
  let open Core in
  let a = addr "10.2.255.1" and b = addr "10.5.255.1" in
  let rng = drbg_rng "mh-f" in
  let m = Multihome.create ~strategy:(Multihome.Prefer b) ~rng () in
  Multihome.mark_failed m b ~now:0L;
  Alcotest.(check (option string)) "avoids failed" (Some "10.2.255.1")
    (Option.map Net.Ipaddr.to_string (Multihome.choose m ~now:1L [ a; b ]));
  (* after the first 30 s window it is eligible again *)
  let later = 30_000_000_001L in
  Alcotest.(check (option string)) "recovers" (Some "10.5.255.1")
    (Option.map Net.Ipaddr.to_string (Multihome.choose m ~now:later [ a; b ]));
  (* all failed: falls back to the full list rather than none *)
  Multihome.mark_failed m a ~now:0L;
  Multihome.mark_failed m b ~now:0L;
  Alcotest.(check bool) "falls back" true (Multihome.choose m ~now:1L [ a; b ] <> None)

let () =
  Alcotest.run "core-protocol"
    [ ( "shim",
        [ Alcotest.test_case "data wire size" `Quick test_data_shim_wire_size;
          Alcotest.test_case "bad sizes" `Quick test_shim_bad_sizes
        ]
        @ shim_props );
      ( "master-key",
        [ Alcotest.test_case "derivation" `Quick test_master_derive_deterministic;
          Alcotest.test_case "replicas agree" `Quick test_master_replicas_agree;
          Alcotest.test_case "rotation grace" `Quick test_master_rotation_grace
        ] );
      ( "datapath",
        [ Alcotest.test_case "blind roundtrip" `Quick test_blind_roundtrip;
          Alcotest.test_case "unblind rejects" `Quick test_unblind_rejects;
          Alcotest.test_case "key setup roundtrip" `Quick test_key_setup_roundtrip;
          Alcotest.test_case "key setup rejects garbage" `Quick
            test_key_setup_rejects_garbage;
          Alcotest.test_case "forward outside" `Quick test_forward_outside;
          Alcotest.test_case "forward stamps refresh" `Quick
            test_forward_stamps_refresh;
          Alcotest.test_case "rejects unknown epoch" `Quick
            test_forward_rejects_unknown_epoch;
          Alcotest.test_case "return path" `Quick test_return_path
        ]
        @ datapath_props );
      ( "keytab",
        [ Alcotest.test_case "lifecycle" `Quick test_keytab;
          Alcotest.test_case "session cache" `Quick test_keytab_session_cache;
          Alcotest.test_case "sessions evict with grants" `Quick
            test_keytab_sessions_evict
        ] );
      ( "session",
        [ Alcotest.test_case "inner codec" `Quick test_inner_codec;
          Alcotest.test_case "lifecycle" `Quick test_session_lifecycle;
          Alcotest.test_case "expiry" `Quick test_session_expiry;
          Alcotest.test_case "churn keeps table bounded" `Quick
            test_session_churn;
          Alcotest.test_case "server gc churn" `Quick test_server_gc_churn;
          Alcotest.test_case "wrong key" `Quick test_accept_initial_wrong_key;
          Alcotest.test_case "payload bytes pinned" `Quick
            test_session_bytes_pinned;
          Alcotest.test_case "steady state expands no key" `Quick
            test_session_steady_state_no_expansion
        ] );
      ( "multihome",
        [ Alcotest.test_case "strategies" `Quick test_multihome_strategies;
          Alcotest.test_case "weighted distribution" `Quick
            test_multihome_weighted_distribution;
          Alcotest.test_case "failure backoff" `Quick
            test_multihome_failure_backoff
        ] )
    ]
