type t = {
  net : Network.t;
  node : Topology.node;
  ports : (int, t -> Packet.t -> unit) Hashtbl.t;
  mutable shim_handler : (t -> Packet.t -> unit) option;
  mutable deliver_hook : (Packet.t -> unit) option;
  mutable next_ephemeral : int;
  mutable dropped : int;
}

let network t = t.net
let addr t = t.node.Topology.addr

let handle t (p : Packet.t) =
  (match t.deliver_hook with Some f -> f p | None -> ());
  match p.protocol with
  | Packet.Shim ->
    (match t.shim_handler with
     | Some h -> h t p
     | None -> t.dropped <- t.dropped + 1)
  | Packet.Udp | Packet.Tcp | Packet.Icmp ->
    (match Hashtbl.find_opt t.ports p.dst_port with
     | Some h -> h t p
     | None -> t.dropped <- t.dropped + 1)

let attach net node =
  let t =
    { net;
      node;
      ports = Hashtbl.create 8;
      shim_handler = None;
      deliver_hook = None;
      next_ephemeral = 49152;
      dropped = 0
    }
  in
  Network.set_handler net node.Topology.nid (fun _net _nid p -> handle t p);
  t

let listen t ~port h = Hashtbl.replace t.ports port h
let unlisten t ~port = Hashtbl.remove t.ports port
let on_shim t h = t.shim_handler <- Some h
let on_deliver t f = t.deliver_hook <- Some f
let send t p = Network.send t.net ~from:t.node.Topology.nid p

let ephemeral_port t =
  let p = t.next_ephemeral in
  t.next_ephemeral <- (if p >= 65535 then 49152 else p + 1);
  p

let send_udp t ~dst ~dst_port ?(src_port = 0) ?(dscp = 0) ?(flow_id = 0)
    ?(seq = 0) ?(app = "") payload =
  let engine = Network.engine t.net in
  let p =
    Packet.make ~src:(addr t) ~dst ~dst_port ~src_port ~dscp ~flow_id ~seq
      ~sent_at:(Engine.now engine) ~app payload
  in
  send t p

let request t ~dst ~dst_port ~timeout ?(retries = 2) ?(app = "") payload
    ~on_reply ~on_timeout =
  let engine = Network.engine t.net in
  let port = ephemeral_port t in
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      unlisten t ~port
    end
  in
  listen t ~port (fun _t p ->
      if not !finished then begin
        finish ();
        on_reply p
      end);
  let rec attempt left =
    if not !finished then begin
      send_udp t ~dst ~dst_port ~src_port:port ~app payload;
      ignore
        (Engine.schedule engine ~delay:timeout (fun () ->
             if not !finished then begin
               if left > 0 then attempt (left - 1)
               else begin
                 finish ();
                 on_timeout ()
               end
             end))
    end
  in
  attempt retries

let default_drop t = t.dropped
