(** Choosing among a multi-homed site's neutralizers (§3.5).

    A site connected to several providers publishes one NEUT record per
    provider; "the ISP-level path of the site's incoming and outgoing
    traffic is then controlled by how other sources pick the
    neutralizers." The paper points at IPv6 source-address-selection-style
    balancing and trial-and-error; these are those strategies. *)

type strategy =
  | First  (** deterministic: always the first published address *)
  | Round_robin  (** rotate per selection *)
  | Weighted of (Net.Ipaddr.t * float) list
      (** traffic-engineering weights, e.g. 80/20 across providers *)
  | Prefer of Net.Ipaddr.t
      (** pin one provider, fall back to the rest on failure *)

type t

val create : ?strategy:strategy -> rng:(int -> string) -> unit -> t
(** Default strategy is [Round_robin]. [rng] draws the window jitter and
    the [Weighted] picks. *)

val choose : t -> now:int64 -> Net.Ipaddr.t list -> Net.Ipaddr.t option
(** Pick from the published NEUT addresses, skipping addresses whose
    failure backoff has not expired at [now]. Falls back to the full list
    when every address is marked failed. [None] only on an empty list. *)

val mark_failed : t -> Net.Ipaddr.t -> now:int64 -> unit
(** Trial-and-error: a key setup through this neutralizer timed out.
    Avoid it for a jittered window that doubles with each consecutive
    failure: the k-th failure's window lies in [(d/2, d]] for
    [d = min 240 s (30 s * 2^(k-1))]. *)

val note_success : t -> Net.Ipaddr.t -> unit
(** The neutralizer answered: clear its failure mark and reset its
    consecutive-failure count, so the next failure starts from the 30 s
    window again. *)

val strikes : t -> Net.Ipaddr.t -> int
(** Consecutive failures recorded against [addr] since its last
    {!note_success} (or creation). *)
