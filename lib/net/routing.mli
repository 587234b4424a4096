(** Routing over the topology graph.

    Two modes:

    - [Shortest] (default): plain Dijkstra on link latency — adequate for
      the paper's Figure-1 world, where every inter-domain edge is a
      peering link.
    - [Valley_free]: Gao-Rexford policy routing. Inter-domain links carry
      business relationships ({!Topology.relationship}: on an edge
      [(a, b, Customer)], [b]'s domain is a customer of [a]'s domain);
      a legal path climbs zero or more customer->provider hops, crosses
      at most one peering link, then descends provider->customer — no
      domain transits traffic between two of its providers or peers for
      free. Inter-domain edges without a declared relationship are
      treated as peering.

    Anycast destinations resolve to the group member with the smallest
    policy-legal distance from the forwarding node — exactly the "any
    neutralizer can decrypt and forward" property (§3.2) the paper gets
    from the shared master key.

    [Valley_free] models BGP's outcome, not its mechanism: each node
    forwards along its own best policy-legal path. In topologies where
    hop-by-hop composition of per-node choices could differ from the
    source's end-to-end path (possible without BGP's export filtering),
    prefer reading {!distance} as the control-plane truth. *)

type policy = Shortest | Valley_free

type t

val compute : ?policy:policy -> ?usable:(Topology.node_id -> bool) -> Topology.t -> t
(** Rebuild after topology changes (e.g. multi-homing failover tests).
    Nodes for which [usable] is false (default: all usable) are excluded
    from the graph entirely — they neither forward, originate, nor sink,
    so paths converge around them as routing protocols converge around a
    dead router. {!Network.recompute_routes} passes its down-node set. *)

val policy : t -> policy

val next_hop :
  t -> Topology.t -> from:Topology.node_id -> Ipaddr.t -> Topology.node_id
(** [next_hop r topo ~from dst] is the neighbour to forward to, or [-1]
    if [dst] is unknown or unreachable under the mode's policy. Returns
    [from] itself when the packet has arrived (dst is [from]'s address or
    an anycast address [from] serves). Allocation-free: it runs at every
    hop. *)

val distance :
  t -> from:Topology.node_id -> to_:Topology.node_id -> int64 option
(** Path latency in nanoseconds (over policy-legal paths only). *)

