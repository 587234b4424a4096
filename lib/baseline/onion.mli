(** The comparator of §5: anonymous routing in the style of Tor.

    "Anonymous routing aims to anonymize both the source and destination
    addresses of a packet, while our design only aims to anonymize the
    non-customer address ... As a result, our design is considerably more
    efficient and scalable in terms of resource consumption. In our
    design, routers don't keep per-flow state, and perform much fewer
    public key encryption/decryption operations."

    This module implements telescoping circuit construction over a set of
    relays — one public-key operation {e per relay per circuit} on both
    the client and relay side, plus a per-circuit state entry at {e every}
    relay — and layered AES-CTR for the data path. Experiment E4 counts
    exactly these costs against the neutralizer's (one public-key
    operation per source per master-key lifetime, zero state). *)

type relay

val create_relay : ?key:Crypto.Rsa.private_key -> id:int -> Random.State.t -> relay
(** Generates the relay's long-term RSA-1024 key unless [key] supplies a
    pregenerated one (key generation costs seconds; harnesses reuse
    fixtures). *)

val relay_state_entries : relay -> int
(** Number of live circuits — the per-flow state §5 contrasts with. *)

val relay_pubkey_ops : relay -> int
val relay_symmetric_ops : relay -> int

type circuit

val build_circuit :
  rng:(int -> string) -> path:relay list -> circuit
(** Telescoping setup: one RSA encryption per hop at the client, one RSA
    decryption at each relay, one state entry installed at each relay. *)

val client_pubkey_ops : circuit -> int

val send : circuit -> string -> string
(** Wrap a payload in one AES-CTR layer per hop (client side). *)

val relay_process : relay -> string -> [ `Forward of string | `Exit of string | `Bad ]
(** Peel one layer at a relay; [`Exit] at the last hop. *)

val transit : circuit -> string -> string option
(** Drive a payload through the whole circuit (client wrap, then each
    relay peel); [Some plaintext] on success. Used by tests and E4. *)
