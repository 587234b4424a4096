(** Hybrid public-key envelopes: RSA-encrypted 32-byte secret, AES-CTR
    body, HMAC-SHA256 tag. The "standard end-to-end encryption techniques
    (e.g., IPsec)" that the paper uses as a black box (§3.1) — this is our
    concrete instantiation, and the only module that knows the envelope
    layout: ['S'] ‖ u32 length ‖ RSA ciphertext of the secret ‖ nonce ‖
    ciphertext ‖ tag.

    A secret's {!keys} are derived once and then reused by every message
    under it: the envelope that carries the secret, and any symmetric
    message after it (a response on the same exchange, an ongoing
    session). *)

type keys
(** The AES-CTR key (expanded) and the HMAC key (prepared) of one secret,
    derived as [HMAC(secret, "seal-enc" ‖ 0x01)] and
    [HMAC(secret, "seal-mac" ‖ 0x01)], each truncated to 16 bytes.
    Immutable, so one [keys] may be shared across domains. *)

val keys : string -> keys
(** [keys secret] derives them: ten compressions and one AES key
    expansion, paid once per secret. *)

val seal :
  rng:(int -> string) -> pub:Rsa.public -> secret:string -> keys -> string ->
  string
(** [seal ~rng ~pub ~secret keys plaintext] is the envelope carrying the
    32-byte [secret] to [pub]'s owner, with [keys = keys secret]. Draws
    the RSA padding, then the nonce. Raises [Invalid_argument] if the RSA
    modulus is too small for the secret (needs >= 43 bytes, i.e. >=
    344-bit keys). *)

val unseal : priv:Rsa.private_key -> string -> (string * keys * string) option
(** [unseal ~priv envelope] is [(secret, keys secret, plaintext)], after
    one RSA decryption, or [None] if the layout, the secret or the tag is
    wrong. *)

val seal_sym : rng:(int -> string) -> keys -> header:string -> string -> string
(** [seal_sym ~rng keys ~header plaintext] is header ‖ nonce ‖ ciphertext
    ‖ tag, so a caller's framing costs no second copy of the envelope.
    The tag is the first 16 bytes of the MAC over nonce ‖ ciphertext; the
    header is not authenticated. [rng] draws the 16-byte nonce. The
    result is the only allocation besides the nonce. *)

val unseal_sym : keys -> off:int -> string -> string option
(** [unseal_sym keys ~off blob] opens the envelope that starts at [off]
    and runs to the end of [blob]. It checks the tag in place and in
    constant time before it decrypts anything, and allocates only the
    plaintext (and its option). *)
