(** Aggregate-based congestion control in the style of pushback
    (Mahajan et al., CCR 2002) — the DoS remedy §3.6 points at for
    key-setup floods, chosen because "it is designed to function well
    with source address spoofing and does not rely on source addresses to
    filter attack traffic".

    The controller watches the packets a protected node admits, bins them
    into aggregates (by source /24 and by traffic class), and when an
    aggregate exceeds its packet-rate threshold over the observation
    window, installs a leaky-bucket rate limit on it. [propagate] installs
    the same limits one domain upstream, pushing the drop work toward the
    sources. Rate limits decay when the aggregate calms down. *)

type aggregate_key = {
  src_prefix : Net.Ipaddr.Prefix.t;  (** /24 of the source *)
  key_setup : bool;  (** shim key-setup class vs everything else *)
}

type config = {
  window : int64;  (** measurement window, ns *)
  threshold_pps : float;  (** per-aggregate admission above this arms a limit *)
  limit_pps : float;  (** enforced rate for a misbehaving aggregate *)
  release_after : int64;  (** quiet time before a limit is lifted *)
}

type t

val create : Net.Engine.t -> config -> t

val middleware : t -> Net.Network.middleware
(** Install on the protected domain (e.g. the neutralizer's ISP). Counts
    and, once armed, rate-limits per aggregate. *)

val propagate : t -> Net.Network.t -> Net.Topology.domain_id -> unit
(** Mirror the currently armed limits into [domain]'s middleware chain —
    the "pushback" step. Safe to call repeatedly. *)

val armed : t -> aggregate_key list
val admitted : t -> int
val limited : t -> int
