(** Runtime network: topology + routing + live links + node behaviour.

    Packets are forwarded hop by hop along shortest paths. At every hop
    inside a domain the domain's {e middleware} chain runs — this is where
    a discriminatory ISP classifies, delays, drops or re-marks traffic.
    Middlewares see only the {!Observation.t} wire view, never simulation
    metadata, enforcing the §2 threat model by construction: an ISP can
    eavesdrop, delay and drop, but cannot read minds or modify contents.

    Local delivery happens when a packet reaches a node whose address (or
    served anycast address) equals the destination; the node's registered
    handler — host application, neutralizer box logic, DNS server — then
    owns the packet. *)

type t

type action =
  | Forward
  | Drop
  | Delay of int64  (** extra queueing delay in ns, then forward *)
  | Remark of int  (** overwrite DSCP (paper §3.4: ISPs may tier by DSCP) *)

type middleware = Observation.t -> action

type handler = t -> Topology.node_id -> Packet.t -> unit

val create : Engine.t -> Topology.t -> t
(** Instantiates links from the topology's edges and computes routes. *)

val engine : t -> Engine.t
val topology : t -> Topology.t

val recompute_routes : t -> unit
(** Call after mutating the topology (e.g. adding a backup link). *)

val set_handler : t -> Topology.node_id -> handler -> unit
(** Replaces the node's local-delivery behaviour. *)

val add_middleware : t -> Topology.domain_id -> middleware -> unit
(** Appends to the domain's chain; chains run in registration order and
    stop at the first non-[Forward] verdict (except [Remark], which
    applies and continues). The chain runs at every hop inside the
    domain, including ingress delivery to the domain's own nodes; it does
    not run at the node that originates a packet. *)

val set_middlewares : t -> Topology.domain_id -> middleware list -> unit
(** Replace the domain's whole chain in one step — the consistent-update
    hook: a policy controller ({!Discrimination.Dsl.Control}-style)
    swaps an entire table between rounds instead of clearing and
    re-adding, so no packet can ever race a half-built chain. The empty
    list un-polices the domain. *)

val policed : t -> Topology.domain_id -> bool
(** Whether the domain currently has a non-empty middleware chain — the
    predicate the fluid-aggregate tier uses to mark a domain as a
    spill-to-packet boundary (its policies must see real packets). *)

val add_tap : t -> Topology.domain_id -> (Observation.t -> unit) -> unit
(** Passive eavesdropping: sees every packet traversing or arriving at any
    node of the domain. *)

val send : t -> from:Topology.node_id -> Packet.t -> unit
(** Inject a packet at a node (the node is the packet's origin; no
    middleware runs for the originating host itself). *)

val inject : t -> Topology.node_id -> Packet.t -> unit
(** Wire-level arrival at a node: transit middleware, TTL and policy
    apply exactly as for a packet coming off a link — unlike {!send},
    which treats the node as the packet's origin. The fluid tier's
    spill boundary drops representative packets into a boundary domain
    through this, at the router where the aggregate's traffic would
    enter. *)

val route_path :
  t -> from:Topology.node_id -> Ipaddr.t -> Topology.node_id list option
(** The node sequence the current routing tables would carry a packet
    along, from [from] to (and including) the delivering node; [None]
    when unroutable. *)

type service_kind =
  | Key_setup
  | Data_forward
  | Data_return
  | Vanilla_forward
  | Other

val service :
  ?kind:service_kind ->
  t ->
  Topology.node_id ->
  cost:int64 ->
  (unit -> unit) ->
  unit
(** Single-server processing queue per node: runs the continuation after
    the node has spent [cost] ns of (serialized) processing time. Models
    per-packet CPU cost, e.g. the neutralizer's crypto work. Every charge
    is recorded in the [net.network.service_ns] histogram, labeled
    [kind=key_setup|data_forward|data_return|vanilla_forward|other]
    ([kind] defaults to [Other]) so per-hop processing cost can be
    broken out by crypto-op kind. The five histograms are resolved when
    the network is created, so a charge does no registry lookup. *)

val backlog : t -> Topology.node_id -> int64
(** Outstanding CPU time (ns) already committed to [nid]'s service
    queue: how long a request admitted now would wait before being
    served. The admission-control input for load shedding. *)

(** Every delivery bumps [net.network.delivered] and every drop
    [net.network.dropped{reason}] in the engine's obs registry. Both
    families are resolved when the network is created and are atomic,
    so shards of a pooled engine bump them safely. The reasons:
    - [no_route], [ttl], [policy] (a middleware [Drop]) and [queue] (a
      full link queue);
    - [link_down]: sends refused by an administratively-down link;
    - [node_down]: packets arriving at (or originated by) a crashed
      node;
    - [shed]: sends refused by a link admission gate ({!Link.set_gate})
      — deliberate load shedding, not congestion. *)

val link_between :
  t -> Topology.node_id -> Topology.node_id -> Link.t option
(** Directed link [from -> to], when adjacent. *)

val iter_links : t -> (Topology.node_id -> Topology.node_id -> Link.t -> unit) -> unit
(** Every instantiated directed link, by source node id, then in the
    order the links were created. *)

val set_node_up : t -> Topology.node_id -> up:bool -> unit
(** Node liveness (fault injection). A down node neither originates,
    transits nor receives packets; everything addressed through it is
    dropped with reason [node_down]. Routing is not recomputed here —
    callers that also change anycast membership should call
    {!recompute_routes}. *)

val node_up : t -> Topology.node_id -> bool

val run : ?pool:Par.pool -> ?until:int64 -> ?max_events:int -> t -> unit
(** Convenience alias for {!Engine.run} on the network's engine. *)
