type t = {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  protocol : int;
  dscp : int;
  ttl : int;
  src_port : int;
  dst_port : int;
  shim : string option;
  payload : string;
  size : int;
  observed_at : int64;
}

let of_packet ~now (p : Packet.t) =
  { src = p.src;
    dst = p.dst;
    protocol = Packet.protocol_number p.protocol;
    dscp = p.dscp;
    ttl = p.ttl;
    src_port = p.src_port;
    dst_port = p.dst_port;
    shim = p.shim;
    payload = p.payload;
    size = Packet.size p;
    observed_at = now
  }

