type inner = {
  refresh : Shim.refresh option;
  reverse_key : (int * string * string) option;
  app : string;
}

let plain app = { refresh = None; reverse_key = None; app }

let nonce_len = Protocol.nonce_len
let key_len = Protocol.key_len
let grant_len = 1 + nonce_len + key_len

(* Writes one grant at [off] of [b]. *)
let encode_grant b off epoch nonce key =
  if String.length nonce <> nonce_len || String.length key <> key_len then
    invalid_arg "Session.encode_inner: bad grant sizes";
  Bytes.set b off (Char.chr (epoch land 0xff));
  Bytes.blit_string nonce 0 b (off + 1) nonce_len;
  Bytes.blit_string key 0 b (off + 1 + nonce_len) key_len

let decode_grant s off =
  ( Char.code s.[off],
    String.sub s (off + 1) nonce_len,
    String.sub s (off + 1 + nonce_len) key_len )

(* Flags byte, then each grant present, then the application bytes,
   written into one buffer of the exact size. *)
let encode_inner i =
  let has = function None -> 0 | Some _ -> 1 in
  let refresh = has i.refresh and reverse = has i.reverse_key in
  let off = 1 + ((refresh + reverse) * grant_len) in
  let b = Bytes.create (off + String.length i.app) in
  Bytes.set b 0 (Char.chr (refresh lor (reverse lsl 1)));
  (match i.refresh with
   | None -> ()
   | Some r -> encode_grant b 1 r.Shim.r_epoch r.r_nonce r.r_key);
  (match i.reverse_key with
   | None -> ()
   | Some (epoch, nonce, key) ->
     encode_grant b (off - grant_len) epoch nonce key);
  Bytes.blit_string i.app 0 b off (String.length i.app);
  Bytes.unsafe_to_string b

let decode_inner s =
  if String.length s < 1 then None
  else begin
    let flags = Char.code s.[0] in
    let off = ref 1 in
    let need n = !off + n <= String.length s in
    let refresh =
      if flags land 1 <> 0 then begin
        if not (need grant_len) then None
        else begin
          let e, n, k = decode_grant s !off in
          off := !off + grant_len;
          Some (Some { Shim.r_epoch = e; r_nonce = n; r_key = k })
        end
      end
      else Some None
    in
    match refresh with
    | None -> None
    | Some refresh ->
      let reverse_key =
        if flags land 2 <> 0 then begin
          if not (need grant_len) then None
          else begin
            let g = decode_grant s !off in
            off := !off + grant_len;
            Some (Some g)
          end
        end
        else Some None
      in
      (match reverse_key with
       | None -> None
       | Some reverse_key ->
         Some
           { refresh;
             reverse_key;
             app = String.sub s !off (String.length s - !off)
           })
  end

type session = {
  keys : Crypto.Seal.keys;
  sid : string;
  peer : Net.Ipaddr.t;
  mutable last_used : int64;
}

type table = {
  by_sid : (string, session) Hashtbl.t;
  by_peer : (Net.Ipaddr.t, session) Hashtbl.t;
}

let create_table () = { by_sid = Hashtbl.create 16; by_peer = Hashtbl.create 16 }

let sid_of_secret secret =
  Crypto.Bytes_util.take 8 (Crypto.Sha256.digest ("nn-sid" ^ secret))

let register t ~secret ~keys ~peer ~now =
  let s = { keys; sid = sid_of_secret secret; peer; last_used = now } in
  Hashtbl.replace t.by_sid s.sid s;
  Hashtbl.replace t.by_peer peer s;
  s

let find t ~sid = Hashtbl.find_opt t.by_sid sid

let expire t ~now ~idle =
  let stale =
    Hashtbl.fold
      (fun _ s acc ->
        if Int64.compare (Int64.sub now s.last_used) idle > 0 then s :: acc
        else acc)
      t.by_sid []
  in
  List.iter
    (fun s ->
      Hashtbl.remove t.by_sid s.sid;
      (* only unlink the peer index if it still points at this session *)
      match Hashtbl.find_opt t.by_peer s.peer with
      | Some cur when cur == s -> Hashtbl.remove t.by_peer s.peer
      | Some _ | None -> ())
    stale;
  stale

let count t = Hashtbl.length t.by_sid
let find_by_peer t ~peer = Hashtbl.find_opt t.by_peer peer

let initial_payload ~rng ~peer_key ~secret ~keys inner =
  "N" ^ Crypto.Seal.seal ~rng ~pub:peer_key ~secret keys (encode_inner inner)

let data_payload ~rng session inner =
  Crypto.Seal.seal_sym ~rng session.keys ~header:("D" ^ session.sid)
    (encode_inner inner)

let accept_initial ~private_key payload =
  if String.length payload < 2 || payload.[0] <> 'N' then None
  else
    match Crypto.Seal.unseal ~priv:private_key (Crypto.Bytes_util.drop 1 payload) with
    | None -> None
    | Some (secret, keys, body) ->
      Option.map (fun i -> (secret, keys, i)) (decode_inner body)

let open_data t ~now payload =
  if String.length payload < 9 || payload.[0] <> 'D' then None
  else begin
    let sid = String.sub payload 1 8 in
    match find t ~sid with
    | None -> None
    | Some session ->
      (match Crypto.Seal.unseal_sym session.keys ~off:9 payload with
       | None -> None
       | Some body ->
         (match decode_inner body with
          | None -> None
          | Some inner ->
            session.last_used <- now;
            Some (session, inner)))
  end
