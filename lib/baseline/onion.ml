type relay = {
  id : int;
  key : Crypto.Rsa.private_key;
  circuits : (string, string) Hashtbl.t; (* circuit id -> AES key *)
  mutable pubkey_ops : int;
  mutable symmetric_ops : int;
}

let create_relay ?key ~id st =
  { id;
    key =
      (match key with
       | Some k -> k
       | None -> Crypto.Rsa.generate ~e:3 ~bits:1024 st);
    circuits = Hashtbl.create 64;
    pubkey_ops = 0;
    symmetric_ops = 0
  }

let relay_state_entries r = Hashtbl.length r.circuits
let relay_pubkey_ops r = r.pubkey_ops
let relay_symmetric_ops r = r.symmetric_ops

type circuit = {
  cid : string; (* 8 bytes *)
  path : relay list;
  keys : string list; (* per hop, same order as path *)
  mutable client_pubkey_ops : int;
  rng : int -> string;
}

let cid_len = 8

let build_circuit ~rng ~path =
  if path = [] then invalid_arg "Onion.build_circuit: empty path";
  let cid = rng cid_len in
  let keys =
    List.map
      (fun relay ->
        let key = rng 16 in
        (* Client encrypts (cid, key) to the relay; the relay decrypts and
           installs per-circuit state — the §5 cost being measured. *)
        let blob =
          Crypto.Rsa.encrypt relay.key.Crypto.Rsa.public ~rng (cid ^ key)
        in
        relay.pubkey_ops <- relay.pubkey_ops + 1;
        (match Crypto.Rsa.decrypt relay.key blob with
         | Some pt when String.length pt = cid_len + 16 ->
           Hashtbl.replace relay.circuits
             (String.sub pt 0 cid_len)
             (String.sub pt cid_len 16)
         | Some _ | None -> failwith "Onion.build_circuit: internal error");
        key)
      path
  in
  let c = { cid; path; keys; client_pubkey_ops = List.length path; rng } in
  c

let client_pubkey_ops c = c.client_pubkey_ops

let layer ~rng ~key body =
  let nonce = rng 16 in
  nonce ^ Crypto.Mode.ctr ~key:(Crypto.Aes.expand_key key) ~nonce body

let send c payload =
  (* Innermost marker 'X' (exit); wrap outward so the first relay peels
     the outermost layer. *)
  let body =
    List.fold_left
      (fun inner key -> "M" ^ layer ~rng:c.rng ~key inner)
      ("X" ^ payload)
      (List.rev c.keys)
  in
  (* The first relay expects cid || wrapped. *)
  c.cid ^ String.sub body 1 (String.length body - 1)

let peel relay blob =
  if String.length blob < cid_len + 16 then None
  else begin
    let cid = String.sub blob 0 cid_len in
    match Hashtbl.find_opt relay.circuits cid with
    | None -> None
    | Some key ->
      let nonce = String.sub blob cid_len 16 in
      let ct = String.sub blob (cid_len + 16) (String.length blob - cid_len - 16) in
      relay.symmetric_ops <- relay.symmetric_ops + 1;
      Some (cid, Crypto.Mode.ctr ~key:(Crypto.Aes.expand_key key) ~nonce ct)
  end

let relay_process relay blob =
  match peel relay blob with
  | None -> `Bad
  | Some (cid, inner) ->
    if String.length inner = 0 then `Bad
    else begin
      match inner.[0] with
      | 'X' -> `Exit (String.sub inner 1 (String.length inner - 1))
      | 'M' ->
        (* Re-prefix the circuit id for the next hop. *)
        `Forward (cid ^ String.sub inner 1 (String.length inner - 1))
      | _ -> `Bad
    end

let transit c payload =
  let first = send c payload in
  let rec go blob = function
    | [] -> None
    | relay :: rest ->
      (match relay_process relay blob with
       | `Bad -> None
       | `Exit pt -> if rest = [] then Some pt else None
       | `Forward next -> go next rest)
  in
  go first c.path
