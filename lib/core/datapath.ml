let key_len = Protocol.key_len
let nonce_len = Protocol.nonce_len

(* Datapath functions are pure, so their op counts go to the global
   registry: family core.datapath.*. *)
let c_masked = Obs.Registry.counter Obs.Registry.default "core.datapath.addresses_masked"
let c_unmasked =
  Obs.Registry.counter Obs.Registry.default "core.datapath.addresses_unmasked"
let c_unmask_failures =
  Obs.Registry.counter Obs.Registry.default "core.datapath.unmask_failures"
let c_grants =
  Obs.Registry.counter Obs.Registry.default "core.datapath.grants_issued"
let c_key_setups =
  Obs.Registry.counter Obs.Registry.default "core.datapath.key_setup_responses"

(* ---- Per-grant sessions ----

   Everything in the address blinding that depends only on the grant —
   the AES key schedule of Ks, the 4-byte mask slice, the fixed 12
   trailing bytes of the tag block — is computed once by [make_session],
   leaving one scratch block and one AES call per packet. A session is
   immutable after creation (no per-call scratch is stored in it), so
   one session may be used from several domains concurrently. *)

type session = {
  s_aes : Crypto.Aes.key;
  s_mask4 : string;
      (* first 4 bytes of the mask block: one AES block under Ks over
         nonce(8) | epoch(1) | "nn-mask", domain-separated from the tag
         block by its trailing label *)
  s_tag_tail : string;
      (* nonce(8) | "tag\x00": the fixed trailing 12 bytes of the tag
         block; the 4-byte address prefix is written per packet into a
         per-call scratch block *)
}

let make_session ~ks ~epoch ~nonce =
  if String.length ks <> key_len then
    invalid_arg "Datapath.make_session: bad key";
  if String.length nonce <> nonce_len then
    invalid_arg "Datapath.make_session: bad nonce";
  let aes = Crypto.Aes.expand_key ks in
  let mask =
    Crypto.Aes.encrypt_block aes
      (nonce ^ String.make 1 (Char.chr (epoch land 0xff)) ^ "nn-mask")
  in
  { s_aes = aes;
    s_mask4 = String.sub mask 0 4;
    s_tag_tail = nonce ^ "tag\x00"
  }

let session_tag s octets =
  let blk = Bytes.create Crypto.Aes.block_size in
  Bytes.blit_string octets 0 blk 0 4;
  Bytes.blit_string s.s_tag_tail 0 blk 4 (nonce_len + 4);
  Crypto.Aes.encrypt_bytes s.s_aes ~src:blk ~dst:blk;
  Bytes.sub_string blk 0 Protocol.tag_len

let blind_session s addr =
  let octets = Net.Ipaddr.to_octets addr in
  let enc = Crypto.Bytes_util.xor octets s.s_mask4 in
  Obs.Counter.inc c_masked;
  (enc, session_tag s octets)

let unblind_session s ~enc_addr ~tag =
  if String.length enc_addr <> 4 || String.length tag <> Protocol.tag_len then begin
    Obs.Counter.inc c_unmask_failures;
    None
  end
  else begin
    let octets = Crypto.Bytes_util.xor enc_addr s.s_mask4 in
    if Crypto.Bytes_util.equal_ct tag (session_tag s octets) then begin
      Obs.Counter.inc c_unmasked;
      Some (Net.Ipaddr.of_octets octets)
    end
    else begin
      Obs.Counter.inc c_unmask_failures;
      None
    end
  end

let blind ~ks ~epoch ~nonce addr =
  blind_session (make_session ~ks ~epoch ~nonce) addr

let unblind ~ks ~epoch ~nonce ~enc_addr ~tag =
  unblind_session (make_session ~ks ~epoch ~nonce) ~enc_addr ~tag

let grant_plaintext epoch nonce ks =
  String.make 1 (Char.chr (epoch land 0xff)) ^ nonce ^ ks

let grant_of_plaintext s =
  if String.length s <> 1 + nonce_len + key_len then None
  else
    Some
      ( Char.code s.[0],
        String.sub s 1 nonce_len,
        String.sub s (1 + nonce_len) key_len )

let fresh_grant ~master ~rng ~src =
  let nonce = rng nonce_len in
  let epoch, ks = Master_key.derive_current master ~nonce ~src in
  Obs.Counter.inc c_grants;
  (epoch, nonce, ks)

let key_setup_response ~master ~rng ~src ~pubkey_blob =
  match Crypto.Rsa.public_of_string pubkey_blob with
  | None -> None
  | Some pub ->
    if Crypto.Rsa.max_payload pub < 1 + nonce_len + key_len then None
    else begin
      let ((epoch, nonce, ks) as grant) = fresh_grant ~master ~rng ~src in
      let rsa_ct = Crypto.Rsa.encrypt pub ~rng (grant_plaintext epoch nonce ks) in
      Obs.Counter.inc c_key_setups;
      Some (Shim.encode (Shim.Key_setup_response { rsa_ct }), grant)
    end

let open_key_setup_response ~onetime ~rsa_ct =
  match Crypto.Rsa.decrypt onetime rsa_ct with
  | None -> None
  | Some pt -> grant_of_plaintext pt

type forward_result = Forwarded of Net.Packet.t | Rejected of string

let forward_outside_data ~master ~rng ~self (p : Net.Packet.t) (d : Shim.data) =
  match Master_key.derive master ~epoch:d.epoch ~nonce:d.nonce ~src:p.src with
  | None -> Rejected "unknown-epoch"
  | Some ks ->
    (match
       unblind ~ks ~epoch:d.epoch ~nonce:d.nonce ~enc_addr:d.enc_addr
         ~tag:d.tag
     with
     | None -> Rejected "bad-tag"
     | Some customer ->
       let refresh =
         if d.key_request then begin
           let r_epoch, r_nonce, r_key = fresh_grant ~master ~rng ~src:p.src in
           Some { Shim.r_epoch; r_nonce; r_key }
         end
         else None
       in
       let shim =
         Shim.encode
           (Shim.Data
              { epoch = d.epoch;
                nonce = d.nonce;
                (* Fig. 2 packet 4: the neutralizer's address rides in
                   the spent enc_addr field, in clear inside the trusted
                   domain. *)
                enc_addr = Net.Ipaddr.to_octets self;
                tag = String.make Protocol.tag_len '\x00';
                key_request = false;
                from_customer = false;
                refresh
              })
       in
       Forwarded { p with dst = customer; shim = Some shim })

let forward_return_data ~master ~self (p : Net.Packet.t) ~epoch ~nonce
    ~initiator =
  match Master_key.derive master ~epoch ~nonce ~src:initiator with
  | None -> Rejected "unknown-epoch"
  | Some ks ->
    let enc_addr, tag = blind ~ks ~epoch ~nonce p.src in
    let shim =
      Shim.encode
        (Shim.Data
           { epoch;
             nonce;
             enc_addr;
             tag;
             key_request = false;
             from_customer = true;
             refresh = None
           })
    in
    Forwarded { p with src = self; dst = initiator; shim = Some shim }
