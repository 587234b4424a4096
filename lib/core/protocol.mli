(** Protocol constants shared across the neutralizer implementation. *)

val nonce_len : int
(** 8 bytes of nonce carried in clear in every shim (§3.2); together with
    a one-byte master-key epoch this is what lets a stateless neutralizer
    recompute [Ks]. *)

val key_len : int
(** 16 — AES-128 keys throughout, as in the paper's evaluation. *)

val tag_len : int
(** 4-byte integrity tag binding (nonce, blinded address). *)

val wire_version : int
(** 2 — the current shim wire version, carried in the fourth header byte
    of every frame. v2 is the strict format: exact frame lengths,
    reserved bytes pinned to zero, bounds-checked variable-length fields.
    Encoders always emit v2. *)

val wire_version_legacy : int
(** 1 — the pre-versioning frame format. A v1 frame carries [0] in the
    version slot (the byte was "reserved, write zero" before versioning
    existed). The decoder still accepts v1 so captures and not-yet-
    upgraded peers parse, but {!Version_gate} refuses v1 from any peer
    that has ever spoken v2 — downgrade is never silent. *)

val max_blob_len : int
(** 4096 — upper bound on any variable-length field (one-time public
    keys, RSA ciphertexts). A length field above this is rejected as
    [Oversized] before any allocation: a mangled or hostile length can
    not make the decoder trust it. *)

val onetime_rsa_bits : int
(** 512 — the paper's short one-time key: "a 512-bit RSA key is only as
    secure as a 56-bit symmetric key", acceptable because it is used once
    and the derived symmetric key is rolled over within two RTTs. *)

val rsa_public_exponent : int
(** 3 — "an RSA encryption may involve as few as two multiplications, if
    the exponent in the public key is 3" (§3.2). *)

val master_key_lifetime : int64
(** One hour in ns: "if we assume a neutralizer's master key lasts for an
    hour, a source ... needs to send a key request once an hour" (§4). *)

(** Per-packet CPU cost model for the simulated boxes, in nanoseconds.
    Defaults were measured on this repository's own crypto code (see
    bench group E3) so that simulated throughput and the
    microbenchmarks tell one story. *)
type costs = {
  key_setup : int64;  (** parse + CMAC derive + PKCS pad + RSA e=3 encrypt *)
  data_forward : int64;  (** CMAC derive + key schedule + unblind + tag *)
  data_return : int64;  (** CMAC derive + key schedule + blind + tag *)
  vanilla_forward : int64;  (** plain IP lookup/forward *)
}

val default_costs : costs

val dscp_ef : int
(** Expedited-forwarding code point used by the QoS experiments. *)
