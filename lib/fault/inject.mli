(** Deterministic fault injector.

    One injector wraps a {!Net.Network.t} and perturbs it at two levels:

    - {b wire faults} — per-link stochastic loss, single-bit corruption
      of the wire image (shim or payload), duplication and bounded
      reordering, installed as {!Net.Link.set_perturb} hooks whose rates
      are drawn from a child stream of the injector's splittable PRNG
      (see {!Prng.split}); and
    - {b topology faults} — administrative link down/up, node crash and
      restart, and inter-domain partitions.

    A node crash withdraws the node from every anycast group it serves
    (its route announcements vanish, §3.5's failover trigger), marks it
    down so queued deliveries are dropped, and recomputes routes; restart
    reverses all of that. Protocol-level amnesia — a neutralizer losing
    its in-RAM QoS state — is the caller's business: register it with
    {!on_crash} / {!on_restart}.

    Everything is counted in the engine's obs registry as
    [fault.injected_total{kind}]; recovery latencies measured by callers
    land in [fault.recovery_ns{kind}] via {!record_recovery}. The whole
    timeline is a pure function of the seed ([FAULT_SEED] when not given
    explicitly), the plan, and the workload. *)

type profile = {
  loss : float;  (** per-packet drop probability *)
  corrupt : float;  (** per-packet single-bit-flip probability *)
  duplicate : float;  (** per-packet duplication probability *)
  reorder : float;  (** per-packet extra-delay probability *)
  reorder_max : int64;  (** max extra delay (ns) when reordered *)
}

val calm : profile
(** All rates zero — installing it removes the hook. *)

type t

val create : ?seed:int -> Net.Network.t -> t
(** [seed] defaults to the [FAULT_SEED] environment variable, then 1
    ({!Prng.env_seed}). *)

val network : t -> Net.Network.t
val prng : t -> Prng.t
val injected : t -> int
(** Total faults injected so far (all kinds, including per-packet wire
    faults) — the bound the acceptance criteria check
    [key_setups_failed] against. *)

val flip_bit : Prng.t -> string -> string
(** Flip one uniformly-chosen bit; [""] passes through. The mutation
    primitive behind the [corrupt] profile, exposed so the protocol fuzzer
    (test_proto) mangles frames with exactly the corruption the chaos
    runs inject. *)

val perturb_link : t -> label:string -> profile:profile -> Net.Link.t -> unit
(** Install a wire-fault hook on one link. [label] keys the link's PRNG
    stream; use a stable name so runs reproduce. *)

val perturb_all_links : t -> profile:profile -> unit
(** Same profile on every link, labelled ["src->dst"] by node names. *)

val link_down : t -> Net.Topology.node_id -> Net.Topology.node_id -> unit
val link_up : t -> Net.Topology.node_id -> Net.Topology.node_id -> unit
(** Administratively disable/enable both directions of a link. *)

val on_crash : t -> Net.Topology.node_id -> (unit -> unit) -> unit
val on_restart : t -> Net.Topology.node_id -> (unit -> unit) -> unit
(** Protocol-level crash/restart behaviour (state wipe, re-registration)
    run after the topology change of {!node_crash} / {!node_restart}. *)

val node_crash : t -> Net.Topology.node_id -> unit
(** No-op if already crashed. *)

val node_restart : t -> Net.Topology.node_id -> unit
(** No-op unless crashed; restores the anycast memberships saved at
    crash time. *)

val node_crashed : t -> Net.Topology.node_id -> bool

val partition : t -> domains:Net.Topology.domain_id list -> unit
(** Cut every link with exactly one endpoint inside [domains]. *)

val heal : t -> unit
(** Undo all outstanding {!partition} cuts. *)

val record_recovery : ?kind:string -> t -> since:int64 -> unit
(** Add [now - since] to the [fault.recovery_ns{kind}] histogram
    ([kind] defaults to ["failover"]). *)
