(** Client-side cache of neutralizer key grants.

    All the state in the key-setup protocol lives here, at the source —
    the neutralizer stores nothing (§3.2). A grant is the (epoch, nonce,
    Ks) triple; the current grant per neutralizer is used for sending
    and for unblinding a reverse-direction first packet. Return packets
    need no grant: they open by end-to-end session
    ({!Session.open_data}).

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
(** Installs as current, evicting the replaced grant's memoized
    session. *)

val current : t -> neutralizer:Net.Ipaddr.t -> grant option

val invalidate : t -> neutralizer:Net.Ipaddr.t -> unit
(** Forget the current grant for [neutralizer] (e.g. the path looks
    dead) together with its memoized session. *)

val session : t -> grant -> Datapath.session
(** Memoized {!Datapath.make_session} for [grant]: the AES key schedule
    and mask slice are expanded on first use and cached while the grant
    is current, so the per-packet send path pays neither. {!put} and
    {!invalidate} evict the session with its grant, so the memo holds
    at most one session per neutralizer. A grant that is not current is
    expanded afresh on every call. *)

val grants : t -> (Net.Ipaddr.t * grant) list

val session_count : t -> int
(** Number of memoized datapath sessions currently held. *)

val clear : t -> unit
(** Forget everything — crash amnesia. The client re-runs key setup
    from scratch afterwards (see {!Client.reset}). *)
