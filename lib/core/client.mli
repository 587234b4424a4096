(** Source-host logic: what runs on a user's machine inside a (possibly
    discriminatory) access ISP — "we also assume that host software can be
    modified to support our design" (§2).

    The client walks the full paper protocol:

    + bootstrap destination info — address, NEUT records, public key —
      over (optionally encrypted) DNS (§3.1);
    + pick a neutralizer among the destination's providers (§3.5),
      falling back on trial-and-error when one times out;
    + one-time-RSA key setup with that neutralizer (§3.2), reusing the
      obtained grant for {e every} destination behind the same
      neutralizer until it ages out;
    + request a key refresh on the first data packet so the
      weak-512-bit-key exposure window closes within two RTTs (§3.2);
    + send data with the destination address blinded and the payload
      end-to-end encrypted; locate return traffic by (neutralizer, nonce)
      and sessions by session id;
    + accept reverse-direction flows initiated from inside a neutralizer
      domain (§3.3) when created with a long-term keypair. *)

type config = {
  dns_server : Net.Ipaddr.t option;
  dns_encrypt : Crypto.Rsa.public option;
      (** encrypt queries so the access ISP cannot discriminate on qname *)
  dns_verify : Crypto.Rsa.public option;
  onetime_keygen : unit -> Crypto.Rsa.private_key;
      (** where key setup gets its one-time keys: the §4 "precomputed
          offline" keys (e.g. [Scenario.Keyring.onetime_pool]) or fresh
          inline generation *)
  strategy : Multihome.strategy;
  blackhole_threshold : int;
      (** §3.5 trial-and-error: after this many consecutive data packets
          through one neutralizer with nothing heard back, the client
          drops its grant, marks the neutralizer failed and re-homes *)
}

type counters = {
  mutable dns_lookups : int;
  mutable key_setups_started : int;
  mutable key_setups_completed : int;
  mutable key_setups_failed : int;
  mutable data_sent : int;
  mutable data_received : int;
  mutable refreshes_applied : int;
  mutable reverse_accepted : int;
  mutable errors : int;
  mutable last_setup_at : int64;
      (** engine time the latest weak-key grant was installed *)
  mutable last_refresh_at : int64;
      (** engine time the latest refresh rolled it over — the difference
          is the §3.2 exposure window ("two round trip times") *)
}

type t

val default_config : rng:(int -> string) -> config
(** Fresh 512-bit e=3 keys per setup, round-robin multihoming, re-homing
    after 25 unanswered data packets. Three protocol constants hold for
    every client: an unanswered key-setup request is retransmitted after
    250 ms, a setup fails after 3 sends, and a grant older than 54
    simulated minutes is renewed by a fresh setup (§4: a key request at
    most once an hour). *)

val create :
  Net.Host.t ->
  ?keypair:Crypto.Rsa.private_key ->
  ?config:config ->
  seed:string ->
  unit ->
  t
(** Attaches the shim handler to the host. [seed] feeds the client's
    DRBG; runs are reproducible. [keypair] enables receiving
    reverse-direction flows. Every inbound shim passes
    {!Version_gate.receive} before any handler runs; each refusal counts
    in [core.proto.reject.client{reason}] and in [counters.errors]. *)

val set_receiver : t -> (peer:Net.Ipaddr.t -> string -> unit) -> unit
(** Application delivery callback: [peer] is the {e real} address of the
    other endpoint, recovered by unblinding. *)

val send_to_name :
  t ->
  name:string ->
  ?dscp:int ->
  ?app:string ->
  ?flow_id:int ->
  ?seq:int ->
  ?on_error:(string -> unit) ->
  string ->
  unit
(** Full path: DNS bootstrap (cached), neutralizer choice, key setup
    (coalesced across concurrent sends), session, data. *)

val send_to :
  t ->
  dest:Net.Ipaddr.t ->
  peer_key:Crypto.Rsa.public ->
  neutralizers:Net.Ipaddr.t list ->
  ?dscp:int ->
  ?app:string ->
  ?flow_id:int ->
  ?seq:int ->
  ?on_error:(string -> unit) ->
  string ->
  unit
(** Like {!send_to_name} with the bootstrap info already in hand. *)

val counters : t -> counters
val keytab : t -> Keytab.t
val sessions : t -> Session.table

val host : t -> Net.Host.t
