(** Static description of the simulated internetwork: domains (ISPs and
    stub sites), nodes, and the links between them.

    Domains own address prefixes; nodes get addresses carved from their
    domain's prefix. Anycast groups model the paper's neutralizer service
    address: "we use an anycast address to represent the neutralizer
    service of an ISP; all customers of an ISP use the same neutralizer
    address, regardless of where they are located" (§3). *)

type node_kind = Host | Router | Neutralizer_box

type domain_id = int
type node_id = int

type relationship = Customer | Peer
(** Business relationship attached to inter-domain links: [Customer] on a
    link from provider to customer domain, [Peer] for settlement-free
    peering. Used by policy code to distinguish "its own customers or
    peers" (whom the paper's market argument protects) from third
    parties. *)

type domain = {
  did : domain_id;
  domain_name : string;
  prefix : Ipaddr.Prefix.t;
}

type node = {
  nid : node_id;
  kind : node_kind;
  addr : Ipaddr.t;
  domain : domain_id;
  node_name : string;
}

type edge = {
  a : node_id;
  b : node_id;
  bandwidth_bps : int;
  latency : int64;
  queue_bytes : int;
  rel : relationship option;  (** [Some] only on inter-domain links *)
}

type t

val create : unit -> t

val add_domain : t -> name:string -> prefix:string -> domain_id
(** [add_domain t ~name ~prefix:"10.1.0.0/16"]. *)

val add_node : t -> domain:domain_id -> kind:node_kind -> name:string -> node
(** Address auto-assigned: next free host address in the domain prefix. *)

val add_link :
  t ->
  node_id ->
  node_id ->
  bandwidth_bps:int ->
  latency:int64 ->
  ?queue_bytes:int ->
  ?rel:relationship ->
  unit ->
  unit
(** Declares a bidirectional link (two unidirectional channels at
    instantiation time). *)

val register_anycast : t -> Ipaddr.t -> node_id list -> unit
(** [register_anycast t addr members] makes [addr] route to the nearest of
    [members]. Members are typically the domain's neutralizer boxes. *)

val remove_anycast_member : t -> Ipaddr.t -> node_id -> unit
(** Withdraw one member from a group — what a crashed neutralizer box's
    route announcement ceasing looks like. No-op if absent. Callers must
    {!Network.recompute_routes} afterwards. *)

val add_anycast_member : t -> Ipaddr.t -> node_id -> unit
(** (Re-)announce one member, appended to the group (creating the group
    when needed). No-op if already present. *)

val anycast_groups : t -> (Ipaddr.t * node_id list) list
(** Every registered group, sorted by address. *)

val fresh_address : t -> domain_id -> Ipaddr.t
(** Allocate an address in the domain without creating a node — the pool
    the QoS dynamic-address feature (§3.4) draws from. *)

val node : t -> node_id -> node
val nodes : t -> node list
val domain : t -> domain_id -> domain
val domains : t -> domain list
val edges : t -> edge list
val node_count : t -> int

val node_id_of_addr : t -> Ipaddr.t -> node_id
(** Unicast lookup: the node with this address, or [-1] when there is
    none (allocation-free, for the per-hop path). Anycast addresses
    resolve via {!anycast_members}. *)

val node_by_name : t -> string -> node option
(** Lookup by the name given to {!add_node} — how declarative fault
    plans refer to nodes. Linear scan; names are assumed unique. *)

val anycast_members : t -> Ipaddr.t -> node_id list
(** Empty when [addr] is not an anycast address. *)

val serves : t -> Ipaddr.t -> node_id -> bool
(** [serves t addr nid]: [nid] is a member of [addr]'s anycast group. *)

val domain_of_addr : t -> Ipaddr.t -> domain option
(** The domain whose prefix contains [addr] (longest match first). *)

val in_domain : t -> Ipaddr.t -> domain_id -> bool

val shard_of : t -> shards:int -> node_id -> int
(** Shard assignment for the parallel event engine ({!Engine}): a node
    lands on [domain mod shards], so a domain's nodes — which exchange
    most of the traffic — share a shard and only inter-domain links
    cross shards. Raises [Invalid_argument] when [shards < 1] or the
    node is unknown. *)

val cross_shard_lookahead : t -> shards:int -> int64 option
(** The smallest latency of any link whose endpoints land on different
    shards under {!shard_of} — the largest safe conservative lookahead
    for a sharded engine over this topology. [None] when no link
    crosses shards (then any lookahead is safe). *)
