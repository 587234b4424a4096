(** Wire-visible view of a packet.

    The threat model (§2) lets a discriminatory ISP eavesdrop on every
    packet crossing its network — headers, shim bytes, payload bytes, size
    and timing — but nothing else. All adversarial code (classifiers,
    discrimination policies, traffic analysers, tests that play the ISP)
    must consume {!t}, never {!Packet.t}, so that simulation-only
    metadata such as the true application label or flow id can never leak
    into a policy decision. *)

type t = private {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  protocol : int;  (** raw IP protocol number, e.g. 17 or 253 *)
  dscp : int;
  ttl : int;
  src_port : int;
  dst_port : int;
  shim : string option;  (** raw shim bytes as they appear on the wire *)
  payload : string;
  size : int;
  observed_at : int64;
}

val of_packet : now:int64 -> Packet.t -> t
