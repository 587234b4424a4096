(** The canonical Figure-1 world, shared by examples, tests and
    experiments.

    Two access ISPs (AT&T with the user Ann, Verizon with Ben) peer with
    Cogent, a non-discriminatory ISP hosting Google, Yahoo, MySpace,
    YouTube and Vonage. Cogent places one neutralizer box on each peering
    boundary; both share one master key and one anycast service address.
    A third-party domain (PlanetLab) runs an encrypting DNS resolver.
    Traces tap every packet inside each access ISP, standing in for the
    ISP's own monitoring. *)

type site = {
  site_name : string;
  node : Net.Topology.node;
  host : Net.Host.t;
  server : Core.Server.t;
  key : Crypto.Rsa.private_key;
}

type t = {
  topo : Net.Topology.t;
  engine : Net.Engine.t;
  net : Net.Network.t;
  (* domains *)
  att : Net.Topology.domain_id;
  verizon : Net.Topology.domain_id;
  cogent : Net.Topology.domain_id;
  planetlab : Net.Topology.domain_id;
  (* access users *)
  ann : Net.Topology.node;
  ann_host : Net.Host.t;
  ben : Net.Topology.node;
  ben_host : Net.Host.t;
  att_router : Net.Topology.node;
  verizon_router : Net.Topology.node;
  (* neutralizer service *)
  anycast : Net.Ipaddr.t;
  master : Core.Master_key.t;
  boxes : Core.Neutralizer.t list;
  (* bootstrap *)
  resolver_addr : Net.Ipaddr.t;
  resolver_key : Crypto.Rsa.private_key;
  zone : Dns.Zone.t;
  dns : Dns.Resolver.server;
  (* sites in Cogent *)
  sites : (string * site) list;
  (* adversary eyes *)
  att_trace : Net.Trace.t;
  verizon_trace : Net.Trace.t;
}

val site_names : string list
(** ["google"; "yahoo"; "myspace"; "youtube"; "vonage"] — published in
    DNS as ["<name>.example"]. *)

val create :
  ?costs:Core.Protocol.costs ->
  ?offload_via:string ->
  ?policy:Net.Routing.policy ->
  unit ->
  t
(** Builds topology, routes, boxes, DNS and site servers. Site servers
    default to an echo responder (reply ["re:" ^ request]); Ann's and
    Ben's access links run at 100 Mbit/s. [offload_via] names a site
    (e.g. ["google"]) that serves as the boxes' §3.2 RSA offload
    helper. [policy] selects the routing mode
    (every inter-domain link in this world is a peering or
    provider-customer edge, so the protocol runs identically under
    [Valley_free]). *)

val site : t -> string -> site
(** Raises [Not_found] for unknown names. *)

val make_client :
  t ->
  Net.Host.t ->
  seed:string ->
  ?strategy:Core.Multihome.strategy ->
  unit ->
  Core.Client.t
(** A client wired to the PlanetLab resolver with encrypted, signed-off
    DNS and precomputed one-time keys ({!Keyring.onetime_pool}). *)

val run : ?until:int64 -> t -> unit

val observed_address_leaks : Net.Trace.t -> Net.Ipaddr.t -> int
(** How many observations expose [addr] in the IP header, shim bytes or
    payload bytes — the opacity metric used across tests and
    experiments. *)
