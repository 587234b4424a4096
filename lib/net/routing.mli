(** Routing over the topology graph: plain Dijkstra on link latency,
    every node forwarding along its own shortest path.

    Anycast destinations resolve to the group member with the smallest
    distance from the forwarding node — exactly the "any neutralizer
    can decrypt and forward" property (§3.2) the paper gets from the
    shared master key. *)

type t

val compute : ?usable:(Topology.node_id -> bool) -> Topology.t -> t
(** Rebuild after topology changes (e.g. multi-homing failover tests).
    Nodes for which [usable] is false (default: all usable) are excluded
    from the graph entirely — they neither forward, originate, nor sink,
    so paths converge around them as routing protocols converge around a
    dead router. {!Network.recompute_routes} passes its down-node set. *)

val next_hop :
  t -> Topology.t -> from:Topology.node_id -> Ipaddr.t -> Topology.node_id
(** [next_hop r topo ~from dst] is the neighbour to forward to, or [-1]
    if [dst] is unknown or unreachable. Returns [from] itself when the
    packet has arrived (dst is [from]'s address or an anycast address
    [from] serves). Allocation-free: it runs at every hop. *)

val distance :
  t -> from:Topology.node_id -> to_:Topology.node_id -> int64 option
(** Path latency in nanoseconds. *)

