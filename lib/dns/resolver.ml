let default_port = 53

type server = {
  zone : Zone.t;
  signer : Crypto.Rsa.private_key option;
  decryption_key : Crypto.Rsa.private_key option;
  rng : (int -> string) option;
  signed : (string * Record.qtype, string * string) Hashtbl.t;
      (* (qname, qtype) -> the signing input last signed, its signature *)
  mutable served : int;
}

let queries_served s = s.served

(* A stored signature is reused only while its input is byte-equal to
   this answer's, so a changed zone is re-signed on its next query with
   no invalidation hook. NXDOMAIN is never stored, so clients asking for
   names the zone lacks cannot grow the table. *)
let signature server key (q : Message.query) rcode answers =
  let input = Message.signing_input ~qname:q.qname answers in
  match (rcode : Message.rcode) with
  | No_error ->
    (match Hashtbl.find_opt server.signed (q.qname, q.qtype) with
     | Some (signed_input, s) when String.equal signed_input input -> s
     | Some _ | None ->
       let s = Crypto.Rsa.sign key input in
       Hashtbl.replace server.signed (q.qname, q.qtype) (input, s);
       s)
  | Name_error | Format_error -> Crypto.Rsa.sign key input

let answer server (q : Message.query) =
  let answers = Zone.lookup server.zone ~name:q.qname q.qtype in
  let rcode : Message.rcode =
    if Zone.mem server.zone ~name:q.qname then Message.No_error
    else Message.Name_error
  in
  let signature =
    Option.map (fun key -> signature server key q rcode answers) server.signer
  in
  { Message.id = q.id; qname = q.qname; rcode; answers; signature }

let handle server host (p : Net.Packet.t) =
  let reply payload =
    Net.Host.send_udp host ~dst:p.src ~dst_port:p.src_port
      ~src_port:p.dst_port ~app:"dns" payload
  in
  let serve_plain body =
    match Message.decode_query body with
    | None -> ()
    | Some q ->
      server.served <- server.served + 1;
      reply (Message.encode_response (answer server q))
  in
  let len = String.length p.payload in
  if len > 0 && p.payload.[0] = 'E' then begin
    match (server.decryption_key, server.rng) with
    | Some priv, Some rng ->
      (* One RSA decryption per query, and the keys it yields seal the
         answer. *)
      (match Crypto.Seal.unseal ~priv (String.sub p.payload 1 (len - 1)) with
       | None -> ()
       | Some (_, keys, body) ->
         (match Message.decode_query body with
          | None -> ()
          | Some q ->
            server.served <- server.served + 1;
            let resp = Message.encode_response (answer server q) in
            reply (Crypto.Seal.seal_sym ~rng keys ~header:"E" resp)))
    | _ -> ()
  end
  else serve_plain p.payload

let serve host ~zone ?(port = default_port) ?signer ?decryption_key ?rng () =
  let server =
    { zone; signer; decryption_key; rng; signed = Hashtbl.create 16; served = 0 }
  in
  Net.Host.listen host ~port (fun host p -> handle server host p);
  server

type error = Timeout | Bad_response | Bad_signature | Refused

let pp_error fmt = function
  | Timeout -> Format.pp_print_string fmt "timeout"
  | Bad_response -> Format.pp_print_string fmt "bad response"
  | Bad_signature -> Format.pp_print_string fmt "bad signature"
  | Refused -> Format.pp_print_string fmt "refused"

let query_id = ref 0

let resolve host ~server ?(port = default_port) ?encrypt_to ?rng ?verify
    ?(timeout = 200_000_000L) ~name ~qtype k =
  incr query_id;
  let q = { Message.id = !query_id; qname = name; qtype } in
  let body = Message.encode_query q in
  let keys = ref None in
  let payload =
    match encrypt_to with
    | None -> body
    | Some pub ->
      let rng =
        match rng with
        | Some r -> r
        | None -> invalid_arg "Resolver.resolve: encrypt_to requires rng"
      in
      (* Remember the exchange's keys to open the sealed response. *)
      let secret = rng 32 in
      let k = Crypto.Seal.keys secret in
      keys := Some k;
      "E" ^ Crypto.Seal.seal ~rng ~pub ~secret k body
  in
  let decode_reply (p : Net.Packet.t) =
    let raw = p.payload in
    let body =
      match !keys with
      | None -> Some raw
      | Some k ->
        if String.length raw > 1 && raw.[0] = 'E' then
          Crypto.Seal.unseal_sym k ~off:1 raw
        else None
    in
    match body with
    | None -> Error Bad_response
    | Some body ->
      (match Message.decode_response body with
       | None -> Error Bad_response
       | Some r ->
         if r.id <> q.id then Error Bad_response
         else begin
           match r.rcode with
           | Message.Name_error | Message.Format_error -> Error Refused
           | Message.No_error ->
             (match verify with
              | None -> Ok r.answers
              | Some pub ->
                let input = Message.signing_input ~qname:r.qname r.answers in
                (match r.signature with
                 | Some s when Crypto.Rsa.verify pub ~msg:input ~signature:s ->
                   Ok r.answers
                 | Some _ | None -> Error Bad_signature))
         end)
  in
  Net.Host.request host ~dst:server ~dst_port:port ~timeout ~app:"dns" payload
    ~on_reply:(fun p -> k (decode_reply p))
    ~on_timeout:(fun () -> k (Error Timeout))

type site_info = {
  addrs : Net.Ipaddr.t list;
  neutralizers : Net.Ipaddr.t list;
  key : Crypto.Rsa.public option;
}

let site_info_of_answers answers =
  let addrs =
    List.filter_map (function Record.A a -> Some a | _ -> None) answers
  in
  let neutralizers =
    List.filter_map (function Record.Neut a -> Some a | _ -> None) answers
  in
  let key =
    List.find_map
      (function Record.Key k -> Crypto.Rsa.public_of_string k | _ -> None)
      answers
  in
  { addrs; neutralizers; key }

let bootstrap host ~server ?port ?encrypt_to ?rng ?verify ?timeout ~name k =
  resolve host ~server ?port ?encrypt_to ?rng ?verify ?timeout ~name
    ~qtype:Record.Q_ANY (function
    | Error e -> k (Error e)
    | Ok answers -> k (Ok (site_info_of_answers answers)))
