type keys = { enc : Aes.key; mac : Hmac.key }

let keys secret =
  { enc = Aes.expand_key (Hmac.derive ~secret ~label:"seal-enc" ~length:16);
    mac = Hmac.key (Hmac.derive ~secret ~label:"seal-mac" ~length:16)
  }

let secret_len = 32
let nonce_len = 16
let tag_len = 16

(* One pass over one buffer: the nonce goes in, CTR writes the
   ciphertext after it, and the MAC over both writes the tag after that.
   The nonce is drawn before any kernel runs, so [rng] never finds a
   kernel's scratch in use. *)
let seal_sym ~rng keys ~header plaintext =
  let nonce = rng nonce_len in
  if String.length nonce <> nonce_len then
    invalid_arg "Seal.seal_sym: rng must return 16 bytes";
  let h = String.length header and n = String.length plaintext in
  let out = Bytes.create (h + nonce_len + n + tag_len) in
  Bytes.blit_string header 0 out 0 h;
  Bytes.blit_string nonce 0 out h nonce_len;
  Mode.ctr_into ~key:keys.enc ~nonce ~nonce_off:0 plaintext ~src_off:0 out
    ~dst_off:(h + nonce_len) ~len:n;
  (* The tag is written after the MAC has read all of nonce ‖ ciphertext. *)
  Hmac.mac_into keys.mac (Bytes.unsafe_to_string out) ~off:h
    ~len:(nonce_len + n) out ~dst_off:(h + nonce_len + n) ~dst_len:tag_len;
  Bytes.unsafe_to_string out

(* The expected tag, per domain. *)
let expect = Domain.DLS.new_key (fun () -> Bytes.create tag_len)

(* Constant time: every byte is compared, whatever differs first. *)
let tag_matches tag blob at =
  let acc = ref 0 in
  for i = 0 to tag_len - 1 do
    acc :=
      !acc
      lor (Char.code (Bytes.unsafe_get tag i) lxor Char.code (String.unsafe_get blob (at + i)))
  done;
  !acc = 0

let unseal_sym keys ~off blob =
  if off < 0 then invalid_arg "Seal.unseal_sym: negative offset";
  let len = String.length blob - off in
  if len < nonce_len + tag_len then None
  else begin
    let body = len - tag_len in
    let tag = Domain.DLS.get expect in
    Hmac.mac_into keys.mac blob ~off ~len:body tag ~dst_off:0 ~dst_len:tag_len;
    if not (tag_matches tag blob (off + body)) then None
    else begin
      let n = body - nonce_len in
      let plaintext = Bytes.create n in
      Mode.ctr_into ~key:keys.enc ~nonce:blob ~nonce_off:off blob
        ~src_off:(off + nonce_len) plaintext ~dst_off:0 ~len:n;
      Some (Bytes.unsafe_to_string plaintext)
    end
  end

(* 'S' ‖ u32 length ‖ RSA ciphertext of the secret ‖ nonce ‖ ct ‖ tag. *)
let seal ~rng ~pub ~secret keys plaintext =
  let rsa_ct = Rsa.encrypt pub ~rng secret in
  let buf = Buffer.create (5 + String.length rsa_ct) in
  Buffer.add_char buf 'S';
  Bytes_util.put_u32 buf (String.length rsa_ct);
  Buffer.add_string buf rsa_ct;
  seal_sym ~rng keys ~header:(Buffer.contents buf) plaintext

let unseal ~priv blob =
  if String.length blob < 5 || blob.[0] <> 'S' then None
  else begin
    let ctlen = Bytes_util.get_u32 blob 1 in
    if ctlen <= 0 || 5 + ctlen > String.length blob then None
    else
      match Rsa.decrypt priv (String.sub blob 5 ctlen) with
      | Some secret when String.length secret = secret_len ->
        let keys = keys secret in
        Option.map
          (fun plaintext -> (secret, keys, plaintext))
          (unseal_sym keys ~off:(5 + ctlen) blob)
      | Some _ | None -> None
  end
