type inner = {
  refresh : Shim.refresh option;
  reverse_key : (int * string * string) option;
  app : string;
}

let plain app = { refresh = None; reverse_key = None; app }

let nonce_len = Protocol.nonce_len
let key_len = Protocol.key_len
let grant_len = 1 + nonce_len + key_len

let encode_grant (epoch, nonce, key) =
  if String.length nonce <> nonce_len || String.length key <> key_len then
    invalid_arg "Session.encode_inner: bad grant sizes";
  String.make 1 (Char.chr (epoch land 0xff)) ^ nonce ^ key

let decode_grant s off =
  ( Char.code s.[off],
    String.sub s (off + 1) nonce_len,
    String.sub s (off + 1 + nonce_len) key_len )

let encode_inner i =
  let buf = Buffer.create (32 + String.length i.app) in
  let flags =
    (if i.refresh <> None then 1 else 0)
    lor if i.reverse_key <> None then 2 else 0
  in
  Buffer.add_char buf (Char.chr flags);
  (match i.refresh with
   | None -> ()
   | Some r -> Buffer.add_string buf (encode_grant (r.Shim.r_epoch, r.r_nonce, r.r_key)));
  (match i.reverse_key with
   | None -> ()
   | Some g -> Buffer.add_string buf (encode_grant g));
  Buffer.add_string buf i.app;
  Buffer.contents buf

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

let clear_table t =
  Hashtbl.reset t.by_sid;
  Hashtbl.reset t.by_peer

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
  "D" ^ session.sid ^ Crypto.Seal.seal_sym ~rng session.keys (encode_inner inner)

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
      (match
         Crypto.Seal.unseal_sym session.keys (Crypto.Bytes_util.drop 9 payload)
       with
       | None -> None
       | Some body ->
         (match decode_inner body with
          | None -> None
          | Some inner ->
            session.last_used <- now;
            Some (session, inner)))
  end
