(** Customer-host logic: what runs at a site inside a non-discriminatory
    ISP's domain (Google, Vonage, ... in Fig. 1).

    The server accepts neutralized flows, answers them through its
    provider's neutralizer (Fig. 2, packets 5-6), echoes refresh grants
    back under end-to-end encryption, initiates reverse-direction flows
    (§3.3), requests QoS dynamic addresses (§3.4), and can act as the
    neutralizer's RSA offload helper (§3.2). *)

type counters = {
  mutable requests : int;
  mutable replies : int;
  mutable reverse_initiated : int;
  mutable offload_served : int;
  mutable qos_addresses : int;
  mutable undecryptable : int;
}

type t

val create :
  Net.Host.t ->
  private_key:Crypto.Rsa.private_key ->
  neutralizer:Net.Ipaddr.t ->
  seed:string ->
  unit ->
  t
(** [private_key] is the long-term end-to-end key whose public half the
    site publishes in DNS; [neutralizer] its provider's anycast address
    (use {!set_neutralizers} for a multi-homed site). *)

val set_neutralizers : t -> Net.Ipaddr.t list -> unit

val set_responder : t -> (t -> peer:Session.session -> string -> unit) -> unit
(** Application callback for incoming neutralized requests. The session's
    [peer] field is the initiator's real address — visible here, inside
    the trusted domain, though never to transit ISPs. *)

val reply : t -> session:Session.session -> ?dscp:int -> ?app:string ->
  ?flow_id:int -> ?seq:int -> string -> unit
(** Send on an established session, via the neutralizer that delivered
    the request. [dscp] defaults to the request's code point, keeping a
    paid service class symmetric (§3.4). Any pending refresh grant
    stamped by the neutralizer is echoed inside the encrypted payload
    (§3.2). *)

val initiate :
  t ->
  outside:Net.Ipaddr.t ->
  peer_key:Crypto.Rsa.public ->
  ?app:string ->
  ?on_error:(string -> unit) ->
  string ->
  unit
(** Reverse-direction communication (§3.3): obtain a grant for [outside]
    from the neutralizer (plaintext, in-domain), then send the first
    packet with the grant sealed to [peer_key]. *)

val request_qos_address :
  t -> ?lease:int64 -> ((Net.Ipaddr.t, string) result -> unit) -> unit
(** §3.4: ask the neutralizer for a dynamic address so that a QoS session
    is flow-identifiable without exposing which customer owns it. *)

val serve_offload : t -> unit
(** Enable §3.2 offload helping: answer [Offload] shims by performing the
    RSA encryption and sending the key-setup response to the requester on
    the neutralizer's behalf. *)

val gc : t -> idle:int64 -> int
(** Drop sessions (and their return-path state) idle longer than [idle]
    ns; returns how many were collected. *)

val enable_gc : t -> ?every:int64 -> ?idle:int64 -> unit -> (unit -> unit)
(** Periodic {!gc} on the engine clock (defaults: sweep every 60 s of
    simulated time, expire after 10 idle minutes). Returns a thunk that
    cancels the sweep — note the recurring event keeps the simulation's
    event queue non-empty until cancelled. *)

val counters : t -> counters
(** [undecryptable] counts ciphertext that would not open and handler
    exceptions on wire-corrupted input. Frames refused before any
    handler runs ({!Version_gate.receive}) count only in
    [core.proto.reject.server{reason}]. *)

val sessions : t -> Session.table
