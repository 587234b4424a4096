(** Simulated IP packets.

    A packet models a standard IPv4 header (source, destination, protocol,
    DSCP, TTL), optional UDP-style ports, the paper's shim layer as an
    opaque octet string (the [core] library owns its codec; IP protocol
    field 253 marks its presence), and a payload.

    [meta] is simulation bookkeeping (flow id, send timestamp, application
    label). It is {e not on the wire}: adversarial code must observe
    packets only through {!Observation.of_packet}, which drops it — this
    is the mechanical encoding of the threat model in §2. *)

type protocol = Udp | Tcp | Icmp | Shim

type meta = {
  flow_id : int;
  seq : int;
  sent_at : int64;  (** nanoseconds, engine clock at send time *)
  app : string;  (** application label, e.g. "voip", "web", "dns" *)
}

type t = {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  protocol : protocol;
  dscp : int;  (** 0-63; a neutralizer never modifies it (§3.4) *)
  ttl : int;
  src_port : int;
  dst_port : int;
  shim : string option;
  payload : string;
  meta : meta;
}

val protocol_number : protocol -> int
(** Conventional IP protocol numbers; the shim layer uses 253
    (experimental, per §2's "fixed and known value"). *)

val make :
  ?protocol:protocol ->
  ?dscp:int ->
  ?ttl:int ->
  ?src_port:int ->
  ?dst_port:int ->
  ?shim:string ->
  ?flow_id:int ->
  ?seq:int ->
  ?sent_at:int64 ->
  ?app:string ->
  src:Ipaddr.t ->
  dst:Ipaddr.t ->
  string ->
  t
(** [make ~src ~dst payload]; defaults: UDP, dscp 0, ttl 64, ports 0,
    no shim. *)

val size : t -> int
(** On-the-wire size in bytes: 20 (IP) + 8 (UDP/TCP-lite) + shim +
    payload. This is the size links charge transmission time for; the
    20-byte data shim (4-byte header, 8-byte nonce, 4-byte blinded
    address, 4-byte tag — see [Core.Shim]) plus a 64-byte payload yields
    the paper's 112-byte neutralized packet (§4). *)

val decrement_ttl : t -> t option
(** [None] when the TTL hits zero. *)
