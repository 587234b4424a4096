(** End-to-end encrypted sessions between the two endpoints.

    The paper uses e2e encryption as a black box (§3.1); this module is
    the box: a first packet sealed to the peer's long-term RSA-1024 key
    ({!Crypto.Seal.seal}) establishes a 32-byte session secret, subsequent
    packets ride on symmetric crypto under that secret. Each side derives
    the secret's {!Crypto.Seal.keys} once and the session holds them, so a
    steady-state packet pays only its own bytes: AES-CTR over the body and
    an HMAC over nonce ‖ ciphertext, no key derivation or expansion.
    Sessions are located by an opaque 8-byte session id derived from the
    secret — {e not} by addresses, which are blurred in both directions.

    The encrypted inner message also carries the protocol's key material
    side-channels: the refresh grant echo (§3.2) and the reverse-direction
    key grant (§3.3). *)

type inner = {
  refresh : Shim.refresh option;
      (** destination -> source: echo of the (nonce', Ks') the neutralizer
          stamped into a key-requesting packet *)
  reverse_key : (int * string * string) option;
      (** customer -> outside destination: the (epoch, nonce, Ks) the
          customer obtained in-domain, granting the outside party a key
          for the customer's neutralizer *)
  app : string;  (** application bytes *)
}

val plain : string -> inner
(** [plain app] is an inner message with no key material. *)

val encode_inner : inner -> string
val decode_inner : string -> inner option

type session = private {
  keys : Crypto.Seal.keys;  (** the secret's keys; the secret is not kept *)
  sid : string;  (** 8 bytes, [H(secret)] truncated *)
  peer : Net.Ipaddr.t;  (** real address of the other endpoint *)
  mutable last_used : int64;
}

type table

val create_table : unit -> table

val register :
  table -> secret:string -> keys:Crypto.Seal.keys -> peer:Net.Ipaddr.t ->
  now:int64 -> session
(** [keys] is [Crypto.Seal.keys secret], derived by the caller, which also
    needs it for the first packet ({!initial_payload}) or got it from
    {!accept_initial}. *)

val find : table -> sid:string -> session option
val find_by_peer : table -> peer:Net.Ipaddr.t -> session option

(** {1 Payload construction} *)

val initial_payload :
  rng:(int -> string) -> peer_key:Crypto.Rsa.public -> secret:string ->
  keys:Crypto.Seal.keys -> inner -> string
(** First packet of a session: ['N'] + {!Crypto.Seal.seal} envelope to the
    peer's long-term key, carrying [secret] and the inner message. *)

val data_payload : rng:(int -> string) -> session -> inner -> string
(** Steady-state packet: ['D'] + sid + symmetric envelope. *)

val accept_initial :
  private_key:Crypto.Rsa.private_key -> string ->
  (string * Crypto.Seal.keys * inner) option
(** Destination side: open an ['N'] payload with one RSA decryption,
    returning [(secret, keys, inner)]. The caller registers the session. *)

val open_data : table -> now:int64 -> string -> (session * inner) option
(** Open a ['D'] payload against the table (verifies the MAC and bumps
    [last_used]). *)

val expire : table -> now:int64 -> idle:int64 -> session list
(** Drop and return sessions unused for longer than [idle] ns. Hosts run
    this periodically so the only per-peer state in the system — at the
    {e end hosts}, never the neutralizer — stays bounded. *)

val count : table -> int
