(** Seeded generation of Internet-like AS topologies.

    The hand-built graphs in {!Topology} (the paper's Figure-1 world,
    the sharded-engine tests' token ring) stop at a dozen domains; the
    scale experiments need hundreds. [generate] grows a power-law domain graph by preferential
    attachment — every new AS buys transit from [attach] existing
    providers drawn proportionally to their degree, the REPETITA-style
    family of repeatable AS-level graphs — then overlays a
    settlement-free peering mesh and places neutralizer boxes (one
    shared anycast service address) in the best-connected transit
    domains.

    Determinism contract: the topology is a pure function of [seed] and
    the shape parameters. Same inputs, same {!fingerprint} — the
    property the qcheck suite in [test/test_scale.ml] pins. *)

type t = {
  topo : Topology.t;
  routers : Topology.node_id array;  (** gateway router of domain [d] *)
  boxes : (Topology.domain_id * Topology.node_id) list;
      (** neutralizer-box placements, best-connected domain first *)
  anycast : Ipaddr.t;  (** the shared neutralizer service address *)
  degrees : int array;  (** inter-domain degree of domain [d] *)
  seed : int;
}

val generate :
  ?attach:int ->
  ?box_domains:int ->
  domains:int ->
  seed:int ->
  unit ->
  t
(** [generate ~domains ~seed ()] builds a [domains]-AS topology: a
    fully-meshed core of [attach + 1] (default [attach = 2]) seed
    domains, preferential-attachment customer/provider edges for the
    rest, [0.15 * domains] extra peering links, and neutralizer boxes
    in the [box_domains] (default 4) highest-degree domains. Every
    domain owns one gateway router; box domains additionally own the
    box node. Raises [Invalid_argument] on
    degenerate shapes ([domains < 2], [attach < 1], [box_domains]
    outside [1, domains]). *)

val client :
  t ->
  domain:Topology.domain_id ->
  name:string ->
  ?bandwidth_bps:int ->
  ?latency:int64 ->
  unit ->
  Topology.node
(** Attach one packet-level client host behind a domain's gateway router
    (default: 100 Mbit/s access link, 1 ms) — how the equivalence
    reference populates a generated topology with real senders. *)

val fingerprint : t -> int
(** Canonical 62-bit digest over domains, nodes and edges in stable
    listing order — the seed-determinism witness. *)

val connected : t -> bool
(** BFS reachability of every node from node 0. Always true for
    generated graphs; exposed for the property suite. *)
