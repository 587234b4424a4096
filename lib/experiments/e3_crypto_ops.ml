type row = { op : string; ops_per_sec : float }
type result = { rows : row list; paper_aes_ops : float }

let aes_block_op () =
  let key = Crypto.Aes.expand_key (String.make 16 'k') in
  let block = String.make 16 'b' in
  fun () -> ignore (Crypto.Aes.encrypt_block key block)

let cmac_op () =
  (* The Ks derivation input: 8-byte nonce + 4-byte address + label. *)
  let key = Crypto.Cmac.key (String.make 16 'k') in
  let msg = String.make 21 'm' in
  fun () -> ignore (Crypto.Cmac.mac key msg)

let ks_derive_op () =
  let master = Core.Master_key.of_seed ~seed:"e3" in
  let nonce = String.make Core.Protocol.nonce_len 'n' in
  let src = Net.Ipaddr.of_string "10.1.0.2" in
  fun () -> ignore (Core.Master_key.derive_current master ~nonce ~src)

let aes_key_schedule_op () =
  let raw = String.make 16 'k' in
  fun () -> ignore (Crypto.Aes.expand_key raw)

let sha256_op () =
  let msg = String.make 64 's' in
  fun () -> ignore (Crypto.Sha256.digest msg)

let ctr_64b_op () =
  let key = Crypto.Aes.expand_key (String.make 16 'k') in
  let nonce = String.make 16 'n' in
  let msg = String.make 64 'p' in
  fun () -> ignore (Crypto.Mode.ctr ~key ~nonce msg)

(* What §4's "the key generation can be precomputed offline" saves: a
   fresh one-time key generated inline, once per key setup. *)
let rsa512_keygen_op () =
  let st = Random.State.make [| 0x9e4f; 11 |] in
  fun () -> ignore (Crypto.Rsa.generate ~e:3 ~bits:512 st)

let rsa512_encrypt_op () =
  let k = Scenario.Keyring.onetime 0 in
  let m = Bignum.Nat.of_bytes_be (String.make 40 'm') in
  fun () -> ignore (Crypto.Rsa.encrypt_raw k.Crypto.Rsa.public m)

let rsa512_decrypt_op () =
  let k = Scenario.Keyring.onetime 0 in
  let c =
    Crypto.Rsa.encrypt_raw k.Crypto.Rsa.public
      (Bignum.Nat.of_bytes_be (String.make 40 'm'))
  in
  fun () -> ignore (Crypto.Rsa.decrypt_raw k c)

let rsa1024_encrypt_op () =
  let k = Scenario.Keyring.e2e 0 in
  let m = Bignum.Nat.of_bytes_be (String.make 100 'm') in
  fun () -> ignore (Crypto.Rsa.encrypt_raw k.Crypto.Rsa.public m)

let rsa1024_decrypt_op () =
  let k = Scenario.Keyring.e2e 0 in
  let c =
    Crypto.Rsa.encrypt_raw k.Crypto.Rsa.public
      (Bignum.Nat.of_bytes_be (String.make 100 'm'))
  in
  fun () -> ignore (Crypto.Rsa.decrypt_raw k c)

let ops =
  [ ("aes128-block", aes_block_op);
    ("aes128-key-schedule", aes_key_schedule_op);
    ("cmac-21B", cmac_op);
    ("ks-derive", ks_derive_op);
    ("aes-ctr-64B", ctr_64b_op);
    ("sha256-64B", sha256_op);
    ("rsa512-keygen-cold", rsa512_keygen_op);
    ("rsa512-e3-encrypt", rsa512_encrypt_op);
    ("rsa512-crt-decrypt", rsa512_decrypt_op);
    ("rsa1024-e3-encrypt", rsa1024_encrypt_op);
    ("rsa1024-crt-decrypt", rsa1024_decrypt_op)
  ]

let run ?min_time () =
  { rows =
      List.map
        (fun (op, mk) -> { op; ops_per_sec = Table.measure ?min_time (mk ()) })
        ops;
    paper_aes_ops = 2_350_000.0
  }

let print r =
  Table.print
    ~title:
      "E3: raw crypto rates (paper: 2.35M AES ops/s via openssl speed)"
    ~header:[ "operation"; "ops/s"; "vs paper AES" ]
    (List.map
       (fun { op; ops_per_sec } ->
         [ op;
           Table.kops ops_per_sec;
           (if op = "aes128-block" then
              Table.f2 (ops_per_sec /. r.paper_aes_ops)
            else "")
         ])
       r.rows)
