(** The neutralizer box: a node agent at the boundary of a
    non-discriminatory ISP's domain (Fig. 1).

    The box is {e stateless} on the key-setup and data paths — every
    symmetric key is recomputed from the master key and packet-carried
    (epoch, nonce, source) — so any number of boxes sharing one
    {!Master_key.t} serve the same anycast address interchangeably. The
    only state it may keep is the optional QoS dynamic-address table,
    which §3.4 explicitly permits.

    Per-packet CPU cost is charged to the simulation through
    {!Net.Network.service} using the configured {!Protocol.costs}, so
    simulated throughput reflects the measured cost of the crypto this
    repository actually runs. *)

type config = {
  anycast : Net.Ipaddr.t;
  master : Master_key.t;
  rng : int -> string;
  costs : Protocol.costs;
  offload_helper : Net.Ipaddr.t option;
      (** §3.2: "if a neutralizer cannot support RSA encryption at line
          speed, it can offload the encryption operation to any customer
          in its domain that is willing to help" *)
}

val default_config :
  anycast:Net.Ipaddr.t -> master:Master_key.t -> rng:(int -> string) -> config
(** Default per-op {!Protocol.costs}, no offload helper. Every box
    grants §3.4 QoS dynamic addresses for at most ten simulated minutes,
    whatever lease the customer asks for. *)

type counters = {
  mutable key_setups : int;
  mutable data_forwarded : int;
  mutable data_returned : int;
  mutable reverse_grants : int;
  mutable qos_grants : int;
  mutable qos_natted : int;
  mutable offloaded : int;
  mutable rejected : int;
  mutable rejected_bad_tag : int;
  mutable rejected_epoch : int;
  mutable shed : int;
      (** work refused by admission control or deadline expiry — every
          shed is also counted in the
          [core.neutralizer.shed_total{reason, class}] obs family *)
}

type t

val attach : Net.Network.t -> Net.Topology.node -> config -> t
(** Installs the box logic as the node's handler. The node should be
    registered as a member of the anycast group for [config.anycast]. *)

val counters : t -> counters
val node : t -> Net.Topology.node

val add_customer : t -> Net.Ipaddr.Prefix.t -> unit
(** Register an additional customer prefix. The box normally tells
    customers apart "from the source address field" (§3.2) by its own
    domain prefix; a multi-homed site (§3.5) carries another provider's
    (or provider-independent) addresses and must be registered
    explicitly, as a provider provisions any customer attachment. *)

val qos_mappings : t -> (Net.Ipaddr.t * Net.Ipaddr.t) list
(** Current (dynamic address, customer) pairs — exposed for tests, which
    assert the dynamic address is flow-identifiable but not
    customer-identifiable to outsiders. *)

val version_gate : t -> Version_gate.t
(** The box's downgrade-prevention state: highest wire version seen per
    peer. Every inbound shim frame passes {!Version_gate.receive}
    before dispatch; each refusal is counted in
    [core.proto.reject.neutralizer{reason}] (decoder
    {!Shim.error_label}s plus ["missing"] and ["downgrade"]) as well as
    the coarse [core.neutralizer.rejected] family. The gate survives
    {!crash}/{!restart} — it is security posture, like the master key,
    not flow state, so an attacker cannot crash the box to win a
    downgrade. *)

val enable_admission : t -> Overload.Admission.t -> unit
(** Turn on graceful degradation: installs an admission gate
    ({!Net.Link.set_gate}) on every ingress link of the box's node and
    starts honouring shim-carried deadlines at dispatch. The gate prices
    box-destined traffic by class — RSA key setups shed first, before
    established AES data — using the box's CPU backlog
    ({!Net.Network.backlog}) and a per-source-prefix rate; transit
    traffic through the node is never shed. Each refusal is counted in
    [core.neutralizer.shed_total{reason, class}] and as a link-level
    ["shed"] drop, never as queue congestion. Call after the topology's
    links exist (e.g. after {!Net.Network.recompute_routes}). *)

val alive : t -> bool

val crash : t -> unit
(** Power the box off: subsequent packets are rejected with reason
    ["crashed"], and the QoS/NAT table — the box's only per-customer RAM
    state; grants are master-key-derived and stateless (§3.2) — is
    wiped. Idempotent. Callers simulating a real outage should also
    withdraw the node from its anycast group and mark it down
    ({!Fault.Inject.node_crash} does all three). *)

val restart : t -> unit
(** Power back on with empty RAM. Grants issued before the crash keep
    working — they derive from the master key — which is the paper's
    point about statelessness; QoS customers must re-request
    addresses. *)
