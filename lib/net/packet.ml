type protocol = Udp | Tcp | Icmp | Shim

type meta = { flow_id : int; seq : int; sent_at : int64; app : string }

type t = {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  protocol : protocol;
  dscp : int;
  ttl : int;
  src_port : int;
  dst_port : int;
  shim : string option;
  payload : string;
  meta : meta;
}

let protocol_number = function
  | Icmp -> 1
  | Tcp -> 6
  | Udp -> 17
  | Shim -> 253

let make ?(protocol = Udp) ?(dscp = 0) ?(ttl = 64) ?(src_port = 0)
    ?(dst_port = 0) ?shim ?(flow_id = 0) ?(seq = 0) ?(sent_at = 0L)
    ?(app = "") ~src ~dst payload =
  if dscp < 0 || dscp > 63 then invalid_arg "Packet.make: dscp out of range";
  { src;
    dst;
    protocol;
    dscp;
    ttl;
    src_port;
    dst_port;
    shim;
    payload;
    meta = { flow_id; seq; sent_at; app }
  }

let ip_header_size = 20
let transport_header_size = 8

let size p =
  ip_header_size + transport_header_size
  + (match p.shim with None -> 0 | Some s -> String.length s)
  + String.length p.payload

let decrement_ttl p = if p.ttl <= 1 then None else Some { p with ttl = p.ttl - 1 }

