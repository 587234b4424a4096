(** Client-side cache of neutralizer key grants.

    All the state in the key-setup protocol lives here, at the source —
    the neutralizer stores nothing (§3.2). A grant is the (epoch, nonce,
    Ks) triple; the current grant per neutralizer is used for sending,
    and past grants stay resolvable by nonce so that in-flight return
    packets blinded under an older grant still open.

    One mutex guards the whole table, so every operation here is safe
    to call from several domains at once; in the simulator only the
    engine thread calls it, and the lock is uncontended. *)

type grant = {
  epoch : int;
  nonce : string;
  key : string;
  obtained_at : int64;
}

type t

val create : unit -> t

val put : t -> neutralizer:Net.Ipaddr.t -> grant -> unit
(** Installs as current and indexes by nonce. *)

val current : t -> neutralizer:Net.Ipaddr.t -> grant option

val find_nonce : t -> neutralizer:Net.Ipaddr.t -> nonce:string -> grant option
(** "It can use the nonce and the neutralizer's address to locate the key
    Ks it shares with the neutralizer" (§3.2). *)

val age : t -> neutralizer:Net.Ipaddr.t -> now:int64 -> int64 option
(** Nanoseconds since the current grant was obtained. *)

val invalidate : t -> neutralizer:Net.Ipaddr.t -> unit
(** Forget the current grant for [neutralizer] (e.g. the path looks
    dead), keeping the nonce index so late return packets still open. *)

val session : t -> grant -> Datapath.session
(** Memoized {!Datapath.make_session} for [grant]: the AES key schedule
    and mask slice are expanded on first use and cached for the grant's
    lifetime, so the per-packet send path pays neither. Evicted together
    with the grant. *)

val drop_older_than : t -> now:int64 -> max_age:int64 -> unit
(** Evict every grant older than [max_age] along with its memoized
    session. Idempotent: a second pass with the same arguments evicts
    nothing further. *)

val evictions : t -> int
(** Total grants evicted by {!drop_older_than} over the table's
    lifetime — each stale grant counts exactly once. *)

val grants : t -> (Net.Ipaddr.t * grant) list

val session_count : t -> int
(** Number of memoized datapath sessions currently held. *)

val clear : t -> unit
(** Forget everything, nonce index included — crash amnesia. The client
    re-runs key setup from scratch afterwards (see {!Client.reset}). *)
