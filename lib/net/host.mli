(** End-host plumbing on top of {!Network}: UDP-style port dispatch,
    ephemeral ports, request/response with timeout, and a separate hook
    for shim-protocol packets (IP protocol 253), which have no ports. *)

type t

val attach : Network.t -> Topology.node -> t
(** [attach net node] registers this module as [node]'s packet handler.
    At most one [Host.t] per node. *)

val network : t -> Network.t
val addr : t -> Ipaddr.t

val listen : t -> port:int -> (t -> Packet.t -> unit) -> unit
(** Install a UDP service on [port]. *)

val unlisten : t -> port:int -> unit

val on_shim : t -> (t -> Packet.t -> unit) -> unit
(** Handler for shim-layer packets delivered to this host. *)

val on_deliver : t -> (Packet.t -> unit) -> unit
(** Measurement hook: called for every packet delivered to this host,
    before port/shim dispatch. Used by experiments to feed {!Flow}
    collectors at the true delivery point. *)

val send : t -> Packet.t -> unit
(** Inject a packet into the network from this host. *)

val send_udp :
  t ->
  dst:Ipaddr.t ->
  dst_port:int ->
  ?src_port:int ->
  ?dscp:int ->
  ?flow_id:int ->
  ?seq:int ->
  ?app:string ->
  string ->
  unit
(** Convenience UDP send with [meta.sent_at] stamped from the engine
    clock. *)

val request :
  t ->
  dst:Ipaddr.t ->
  dst_port:int ->
  timeout:int64 ->
  ?retries:int ->
  ?app:string ->
  string ->
  on_reply:(Packet.t -> unit) ->
  on_timeout:(unit -> unit) ->
  unit
(** One-shot request: allocates an ephemeral source port, sends, and
    waits for the first reply to that port. Retransmits up to [retries]
    times (default 2) before giving up. *)

val default_drop : t -> int
(** Packets that reached this host with no matching port/shim handler. *)
