(** Compositional discrimination-policy DSL (NetCore-shaped): the
    adversary's rulebook.

    A small predicate/action language with combinators — union,
    sequencing, negation, per-domain restriction — compiled into flat
    per-router classifier tables installed as {!Net.Network.middleware}.
    Predicates cover every vector the paper discusses: application type
    (§1, via the classifier), specific sources or destinations ("slow
    down a customer's VoIP traffic from Vonage"), encrypted traffic and
    key-setup packets (§3.6), and DSCP tiers (§3.4 — the legitimate
    kind). Hand-written regimes (experiments E5, E10, E11) and the
    seeded generator {!Dsl_gen}, which sweeps thousands of machine-made
    regimes against the neutralizer (experiment E15,
    [netneutral fuzzpolicy]), run on this one engine.

    Two artifacts share one semantics and keep each other honest:

    - {!interpret}: a naive reference interpreter walking the policy
      tree — small enough to audit by eye;
    - {!compile}/{!verdict}: the classifier-table compiler — [Seq]
      composition is cross-producted with DSCP specialization so the
      table is a first-match-wins scan, the shape a real router TCAM
      holds; the differential fuzzer asserts bit-identical verdicts
      against the interpreter on random policies x random observations.

    {!Control} installs compiled tables with {e per-packet consistent}
    swaps: a two-version epoch scheme (the SIGCOMM'12 consistent-updates
    idea scaled to this simulator) guarantees no packet is judged by two
    different policy versions across its hops. *)

type throttle_spec = {
  rate_bps : int;
  burst_bytes : int;
  max_delay_ns : int64;
}
(** Pure data standing for a {!Shaper} — policies stay generatable
    values; shapers are instantiated per compiled table. *)

type rate_spec = { bps : int; window_ns : int64 }
(** Threshold for {!Rate_above}: true while the classifier's observed
    aggregate rate over a sliding [window_ns] exceeds [bps]. The meter
    is per compiled-table (per router install), counting every packet
    the classifier sees. *)

type pred =
  | True
  | False
  | Src_in of Net.Ipaddr.Prefix.t
  | Dst_in of Net.Ipaddr.Prefix.t
  | Addr of Net.Ipaddr.t  (** matches source or destination *)
  | Src_port of int
  | Dst_port of int
  | Dscp of int
  | Protocol of int  (** IP protocol number; 253 is the shim *)
  | App of Classifier.app_class
  | Shim_present  (** §3.6 vector: the shim header is in the clear *)
  | Key_setup  (** {!Classifier.is_key_setup} *)
  | Looks_encrypted  (** {!Classifier.looks_encrypted} *)
  | Entropy_at_least of float  (** bits/byte over the payload *)
  | Size_at_least of int
  | Rate_above of rate_spec
  | Not of pred
  | And of pred * pred
  | Or of pred * pred

type act =
  | Allow  (** explicit whitelist: forward and stop matching *)
  | Drop
  | Delay of int64  (** extra queueing delay, ns *)
  | Throttle of throttle_spec
  | Set_dscp of int
  | Deprioritize  (** sugar for [Set_dscp 8]: CS1, the "lower-effort" class *)

val throttle : rate_bps:int -> act
(** [Throttle] at [rate_bps] with the default bucket: a 16 KiB burst and
    500 ms of virtual queue before packets drop. *)

type policy =
  | Nil  (** matches nothing; every packet forwards *)
  | Rule of pred * act
  | Seq of policy * policy
      (** run left; [Forward] and remark verdicts continue into right
          (remarks re-bind DSCP for the right side, network-chain
          style) *)
  | Union of policy * policy
      (** left-priority union: left's verdict unless it is no-match *)
  | Restrict of pred * policy  (** right applies only where pred holds *)
  | In_domain of Net.Topology.domain_id * policy
      (** applies only when installed in that domain (compile-time
          restriction — other domains' tables prune it) *)

(** A rendered decision, before any stateful shaper runs. [V_throttle]
    and the meters behind {!Rate_above} are identified by the
    occurrence's in-order position in the policy tree, so two
    compilations of the same tree are comparable verdict-for-verdict. *)
type verdict =
  | V_forward  (** no rule matched *)
  | V_allow  (** an {!Allow} rule matched *)
  | V_drop
  | V_delay of int64
  | V_throttle of int * throttle_spec  (** occurrence id, spec *)
  | V_remark of int

val verdict_to_string : verdict -> string
(** Canonical byte rendering, the unit of the differential fuzzer's
    byte-equality checks and digests. *)

val pp_policy : Format.formatter -> policy -> unit

(** {2 Reference interpreter} *)

type interp
(** Interpreter instance: the policy tree plus its private rate-meter
    state. *)

val interp_create : policy -> interp

val interpret :
  ?domain:Net.Topology.domain_id -> interp -> Net.Observation.t -> verdict
(** Direct tree walk; updates every rate meter with the observation
    (once per call), then evaluates. [domain] resolves {!In_domain}
    (absent: such sub-policies match nothing). *)

(** {2 Classifier-table compiler} *)

type compiled

val compile :
  ?engine:Net.Engine.t ->
  ?domain:Net.Topology.domain_id ->
  policy ->
  compiled
(** Flatten to a first-match-wins rule table: [Union] concatenates,
    [Restrict] conjoins, [Seq] cross-products (remark rules are
    specialized into the right-hand table with the remarked DSCP
    substituted into its [Dscp] atoms). [engine] is required to render
    {!Throttle} verdicts into actions ({!middleware});
    verdict-only use may omit it. [domain] prunes {!In_domain}. *)

val rule_count : compiled -> int
(** Rules in the flattened table (cross-producting can expand [Seq]). *)

val verdict : compiled -> Net.Observation.t -> verdict
(** Scan the table (updating rate meters once per call): the first
    matching rule's action is the verdict; no match is [V_forward]. *)


val middleware : compiled -> Net.Network.middleware
(** [fun o -> action_of c o (verdict c o)]. *)

(** {2 Per-packet consistent installation} *)

module Control : sig
  (** Two-version epoch-consistent policy deployment.

      [install] compiles one table per target domain (each with its own
      shaper/meter state, so every table's state stays on its engine
      shard) and appends one middleware per domain. [swap] stages a new
      policy version that takes effect at a simulated instant: packets
      first observed before that instant keep being judged by the old
      tables at {e every} subsequent hop — an epoch stamp keyed by the
      packet's wire identity (addresses, ports, protocol, payload and
      shim bytes; TTL and DSCP excluded, since hops rewrite them) — so
      no packet ever sees a half-applied update. The audit counters
      make the guarantee testable, and [~consistent:false] turns the
      stamping off so tests can demonstrate the torn-update anomaly the
      scheme prevents.

      Epoch bookkeeping is mutex-protected and decided purely by
      simulated timestamps, so verdicts are bit-identical at every
      engine shard count. Swaps must be registered while the engine is
      idle (between runs, or before the run that spans the flip) and
      spaced further apart than any packet's in-flight lifetime. *)

  type t

  val install :
    ?consistent:bool ->
    ?audit:bool ->
    Net.Network.t ->
    domains:Net.Topology.domain_id list ->
    policy ->
    t
  (** [consistent] defaults to [true]. [audit] (default [false])
      additionally records every verdict per packet key for the
      order-independent {!audit_digest}. *)

  val swap : t -> ?at:int64 -> policy -> unit
  (** Stage [policy] as the next epoch, effective at simulated time
      [at] (default: now). Raises [Invalid_argument] if [at] is in the
      past or the previous swap has not yet taken effect. *)

  val epoch : t -> int
  (** Epochs deployed so far (0 after [install]). *)

  val verdicts : t -> int
  (** Total verdicts rendered across all domains. *)


  val hits : t -> int
  (** Verdicts other than forward/allow, any protocol. *)

  val mixed_epoch_verdicts : t -> int
  (** Verdicts rendered under a different epoch than the packet's
      stamped one. Always [0] with [consistent:true]; the anomaly
      counter naive mode exposes. *)

  val stamped : t -> int
  (** Distinct packet identities stamped since the last eviction. *)

  val audit_digest : t -> string
  (** SHA-256 over per-packet verdict logs folded in sorted key order —
      identical across shard counts and pool sizes iff the packets'
      verdict histories are. Requires [~audit:true] (empty log
      otherwise). *)
end
