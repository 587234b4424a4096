type keys = { enc : Aes.key; mac : Hmac.key }

let keys secret =
  { enc = Aes.expand_key (Hmac.derive ~secret ~label:"seal-enc" ~length:16);
    mac = Hmac.key (Hmac.derive ~secret ~label:"seal-mac" ~length:16)
  }

let secret_len = 32
let nonce_len = 16
let tag_len = 16

let seal_sym ~rng keys plaintext =
  let nonce = rng nonce_len in
  let body = nonce ^ Mode.ctr ~key:keys.enc ~nonce plaintext in
  body ^ Bytes_util.take tag_len (Hmac.mac keys.mac body)

let unseal_sym keys blob =
  let len = String.length blob in
  if len < nonce_len + tag_len then None
  else begin
    let body = String.sub blob 0 (len - tag_len) in
    let expect = Bytes_util.take tag_len (Hmac.mac keys.mac body) in
    if Bytes_util.equal_ct (Bytes_util.drop (len - tag_len) blob) expect then
      Some
        (Mode.ctr ~key:keys.enc ~nonce:(String.sub body 0 nonce_len)
           (Bytes_util.drop nonce_len body))
    else None
  end

(* 'S' ‖ u32 length ‖ RSA ciphertext of the secret ‖ nonce ‖ ct ‖ tag. *)
let seal ~rng ~pub ~secret keys plaintext =
  let rsa_ct = Rsa.encrypt pub ~rng secret in
  let buf = Buffer.create (String.length plaintext + 96) in
  Buffer.add_char buf 'S';
  Bytes_util.put_u32 buf (String.length rsa_ct);
  Buffer.add_string buf rsa_ct;
  Buffer.add_string buf (seal_sym ~rng keys plaintext);
  Buffer.contents buf

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
          (unseal_sym keys (Bytes_util.drop (5 + ctlen) blob))
      | Some _ | None -> None
  end
