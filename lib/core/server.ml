type counters = {
  mutable requests : int;
  mutable replies : int;
  mutable reverse_initiated : int;
  mutable offload_served : int;
  mutable qos_addresses : int;
  mutable undecryptable : int;
}

(* Per-session return-path state: where to send replies and under which
   (epoch, nonce); plus a refresh grant awaiting its encrypted echo. *)
type peer_state = {
  mutable initiator : Net.Ipaddr.t;
  mutable epoch : int;
  mutable nonce : string;
  mutable dscp : int; (* DSCP of the last forward packet; replies echo it *)
  mutable via : Net.Ipaddr.t option;
      (* the neutralizer that delivered the last forward packet (Fig. 2
         packet 4); replies must return through the same provider, whose
         master key derived this nonce's Ks *)
  mutable pending_refresh : Shim.refresh option;
}

type t = {
  host : Net.Host.t;
  drbg : Crypto.Drbg.t;
  private_key : Crypto.Rsa.private_key;
  mutable neutralizers : Net.Ipaddr.t list;
  sessions : Session.table;
  peers : (string, peer_state) Hashtbl.t; (* by session id *)
  mutable responder : t -> peer:Session.session -> string -> unit;
  mutable offload_enabled : bool;
  pending_reverse :
    (string -> unit) Queue.t (* continuations waiting for a grant *);
  pending_qos : ((Net.Ipaddr.t, string) result -> unit) Queue.t;
  gate : Version_gate.t;
  ctrs : counters;
}

let counters t = t.ctrs
let sessions t = t.sessions
let rng t n = Crypto.Drbg.generate t.drbg n
let engine t = Net.Network.engine (Net.Host.network t.host)
let now t = Net.Engine.now (engine t)
let set_neutralizers t l = t.neutralizers <- l
let set_responder t f = t.responder <- f

let neutralizer t =
  match t.neutralizers with
  | n :: _ -> n
  | [] -> invalid_arg "Server: no neutralizer configured"

let send_shim t ~dst ?(src = Net.Host.addr t.host) ?(dscp = 0) ?(app = "")
    ?(flow_id = 0) ?(seq = 0) shim payload =
  Net.Host.send t.host
    (Net.Packet.make ~protocol:Net.Packet.Shim ~shim:(Shim.encode shim) ~src
       ~dst ~dscp ~flow_id ~seq ~sent_at:(now t) ~app payload)

let peer_state t session =
  let sid = session.Session.sid in
  match Hashtbl.find_opt t.peers sid with
  | Some st -> st
  | None ->
    let st =
      { initiator = session.Session.peer;
        epoch = 0;
        nonce = String.make Protocol.nonce_len '\x00';
        dscp = 0;
        via = None;
        pending_refresh = None
      }
    in
    Hashtbl.replace t.peers sid st;
    st

(* ---- Incoming neutralized data (Fig. 2 packet 4) ---- *)

let handle_data t (p : Net.Packet.t) (d : Shim.data) =
  let record session =
    let st = peer_state t session in
    st.initiator <- p.src;
    st.epoch <- d.epoch;
    st.nonce <- d.nonce;
    st.dscp <- p.dscp;
    (if String.length d.enc_addr = 4 && d.enc_addr <> "\x00\x00\x00\x00"
     then st.via <- Some (Net.Ipaddr.of_octets d.enc_addr));
    (match d.refresh with
     | Some r -> st.pending_refresh <- Some r
     | None -> ())
  in
  match Session.open_data t.sessions ~now:(now t) p.payload with
  | Some (session, inner) ->
    record session;
    t.ctrs.requests <- t.ctrs.requests + 1;
    t.responder t ~peer:session inner.app
  | None ->
    (match Session.accept_initial ~private_key:t.private_key p.payload with
     | Some (secret, keys, inner) ->
       let session =
         Session.register t.sessions ~secret ~keys ~peer:p.src ~now:(now t)
       in
       record session;
       t.ctrs.requests <- t.ctrs.requests + 1;
       t.responder t ~peer:session inner.app
     | None -> t.ctrs.undecryptable <- t.ctrs.undecryptable + 1)

(* ---- Replies through the return path (Fig. 2 packets 5-6) ---- *)

let reply t ~session ?dscp ?(app = "") ?(flow_id = 0) ?(seq = 0) payload =
  let st = peer_state t session in
  (* A reply defaults to the request's service class (§3.4: the DSCP is
     end-to-end business; neutralizers never touch it). *)
  let dscp = Option.value ~default:st.dscp dscp in
  let refresh = st.pending_refresh in
  st.pending_refresh <- None;
  let inner = { Session.refresh; reverse_key = None; app = payload } in
  let body = Session.data_payload ~rng:(rng t) session inner in
  t.ctrs.replies <- t.ctrs.replies + 1;
  let via = Option.value ~default:(neutralizer t) st.via in
  send_shim t ~dst:via ~dscp ~app ~flow_id ~seq
    (Shim.Return { epoch = st.epoch; nonce = st.nonce; initiator = st.initiator })
    body

(* ---- Reverse-direction initiation (§3.3) ---- *)

let initiate t ~outside ~peer_key ?(app = "") ?on_error payload =
  let k grant_raw =
    match Shim.decode grant_raw with
    | Some (Shim.Reverse_key_response { epoch; nonce; key }) ->
      let secret = rng t 32 in
      let keys = Crypto.Seal.keys secret in
      let session =
        Session.register t.sessions ~secret ~keys ~peer:outside ~now:(now t)
      in
      let st = peer_state t session in
      st.initiator <- outside;
      st.epoch <- epoch;
      st.nonce <- nonce;
      st.via <- Some (neutralizer t);
      let inner =
        { Session.refresh = None;
          reverse_key = Some (epoch, nonce, key);
          app = payload
        }
      in
      let body =
        Session.initial_payload ~rng:(rng t) ~peer_key ~secret ~keys inner
      in
      t.ctrs.reverse_initiated <- t.ctrs.reverse_initiated + 1;
      send_shim t ~dst:(neutralizer t) ~app
        (Shim.Return { epoch; nonce; initiator = outside })
        body
    | Some _ | None ->
      (match on_error with Some f -> f "bad reverse key response" | None -> ())
  in
  Queue.push k t.pending_reverse;
  send_shim t ~dst:(neutralizer t) ~app:"reverse-key"
    (Shim.Reverse_key_request { outside })
    ""

(* ---- QoS dynamic addresses (§3.4) ---- *)

let request_qos_address t ?(lease = 60_000_000_000L) k =
  Queue.push k t.pending_qos;
  send_shim t ~dst:(neutralizer t) ~app:"qos"
    (Shim.Qos_address_request { lease })
    ""

(* ---- Offload helping (§3.2) ---- *)

let serve_offload t = t.offload_enabled <- true

let handle_offload t ~pubkey ~epoch ~nonce ~key ~requester =
  match Crypto.Rsa.public_of_string pubkey with
  | None -> ()
  | Some pub ->
    if Crypto.Rsa.max_payload pub >= 1 + Protocol.nonce_len + Protocol.key_len
    then begin
      let pt =
        String.make 1 (Char.chr (epoch land 0xff)) ^ nonce ^ key
      in
      let rsa_ct = Crypto.Rsa.encrypt pub ~rng:(rng t) pt in
      t.ctrs.offload_served <- t.ctrs.offload_served + 1;
      (* Answer on the neutralizer's behalf, from the anycast address, so
         the requester cannot be told apart from the normal case. *)
      send_shim t ~dst:requester ~src:(neutralizer t) ~app:"offload"
        (Shim.Key_setup_response { rsa_ct })
        ""
    end

let handle_shim_decoded t (p : Net.Packet.t) shim =
  (match shim with
     | Shim.Data d when not d.from_customer -> handle_data t p d
     | Shim.Reverse_key_response _ as r ->
       if not (Queue.is_empty t.pending_reverse) then
         (Queue.pop t.pending_reverse) (Shim.encode r)
     | Shim.Qos_address_response { addr; lease = _ } ->
       if not (Queue.is_empty t.pending_qos) then begin
         t.ctrs.qos_addresses <- t.ctrs.qos_addresses + 1;
         (Queue.pop t.pending_qos) (Ok addr)
       end
     | Shim.Offload { pubkey; epoch; nonce; key; requester } ->
       if t.offload_enabled then
         handle_offload t ~pubkey ~epoch ~nonce ~key ~requester
     | Shim.Data _ | Shim.Key_setup_request _ | Shim.Key_setup_response _
     | Shim.Return _ | Shim.Reverse_key_request _
     | Shim.Qos_address_request _ | Shim.Stale_grant _ -> ())

(* A frame the strict decoder or the downgrade gate refused; previously
   these disappeared without a trace. [undecryptable] keeps its
   session-layer meaning and is not touched here. *)
let proto_reject t label =
  Obs.Counter.inc
    (Obs.Registry.counter
       (Net.Engine.obs (engine t))
       ~labels:[ ("reason", label) ]
       "core.proto.reject.server")

let handle_shim t (p : Net.Packet.t) =
  match Version_gate.receive t.gate ~peer:p.src p.shim with
  | Error label -> proto_reject t label
  | Ok shim -> (
    try handle_shim_decoded t p shim
    with _ ->
      (* Bit-flipped-on-the-wire input must end here, not in the network
         layer. *)
      t.ctrs.undecryptable <- t.ctrs.undecryptable + 1)

let gc t ~idle =
  let stale = Session.expire t.sessions ~now:(now t) ~idle in
  List.iter (fun s -> Hashtbl.remove t.peers s.Session.sid) stale;
  List.length stale

let enable_gc t ?(every = 60_000_000_000L) ?(idle = 600_000_000_000L) () =
  Net.Engine.every (engine t) ~period:every (fun () -> ignore (gc t ~idle))

let create host ~private_key ~neutralizer ~seed () =
  let t =
    { host;
      drbg = Crypto.Drbg.create ~seed;
      private_key;
      neutralizers = [ neutralizer ];
      sessions = Session.create_table ();
      peers = Hashtbl.create 16;
      responder = (fun _ ~peer:_ _ -> ());
      offload_enabled = false;
      pending_reverse = Queue.create ();
      pending_qos = Queue.create ();
      gate = Version_gate.create ();
      ctrs =
        { requests = 0;
          replies = 0;
          reverse_initiated = 0;
          offload_served = 0;
          qos_addresses = 0;
          undecryptable = 0
        }
    }
  in
  Net.Host.on_shim host (fun _host p -> handle_shim t p);
  t
