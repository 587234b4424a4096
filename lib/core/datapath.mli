(** The stateless per-packet transforms of the neutralizer — pure
    functions over the master key, so they can be unit-tested and
    benchmarked (experiments E1-E3) without the simulator, and shared by
    every replica box.

    Per data packet the box performs exactly the paper's budget: one keyed
    hash to recover [Ks] and symmetric operations to (un)blind the
    protected address (§4: "a hash computation and a symmetric key
    encryption or decryption"). Per key-setup packet it performs one RSA
    encryption with [e = 3]. *)

(** {1 Address blinding} *)

val blind :
  ks:string -> epoch:int -> nonce:string -> Net.Ipaddr.t -> string * string
(** [blind ~ks ~epoch ~nonce addr] is [(enc_addr, tag)]: 4 bytes of
    blinded address and a 4-byte tag binding (Ks, nonce, addr). *)

val unblind :
  ks:string -> epoch:int -> nonce:string -> enc_addr:string -> tag:string ->
  Net.Ipaddr.t option
(** Inverse of {!blind}; [None] when the tag does not verify (forged or
    corrupted shim, or wrong key). *)

val expand : ks:string -> Crypto.Aes.key
(** Precompute the AES key schedule for [Ks]. *)

val unblind_with_schedule :
  aes:Crypto.Aes.key -> epoch:int -> nonce:string -> enc_addr:string ->
  tag:string -> Net.Ipaddr.t option
(** {!unblind} with the key schedule supplied — what a hypothetical
    {e stateful} neutralizer that cached per-source keys would run. The
    A3 ablation measures what the paper's statelessness costs per
    packet. *)

(** {1 Precomputed sessions}

    Grant-side fast path: everything in {!blind}/{!unblind} that depends
    only on the grant (AES key schedule, the 4-byte mask slice, the
    constant tail of the tag block) is precomputed once, so the per-packet
    cost drops to one AES block and a 4-byte XOR. Outputs are byte
    identical to the stateless functions — property-tested in the suite.
    Sessions are immutable after creation, so one session may be used
    concurrently from several domains. *)

type session

val make_session : ks:string -> epoch:int -> nonce:string -> session

val blind_session : session -> Net.Ipaddr.t -> string * string
(** Same result as {!blind} with the session's grant. *)

val unblind_session :
  session -> enc_addr:string -> tag:string -> Net.Ipaddr.t option
(** Same result as {!unblind} with the session's grant. *)

(** {1 Key setup (§3.2)} *)

val key_setup_response :
  master:Master_key.t ->
  rng:(int -> string) ->
  src:Net.Ipaddr.t ->
  pubkey_blob:string ->
  (string * (int * string * string)) option
(** Process one key-setup request from [src] carrying a serialized
    one-time public key. Returns [(response_shim, (epoch, nonce, ks))] —
    the shim to send back, plus the derived material (which the box does
    {e not} store; it is returned for offload stamping and tests).
    [None] when the public key blob does not parse. *)

val open_key_setup_response :
  onetime:Crypto.Rsa.private_key -> rsa_ct:string -> (int * string * string) option
(** Source side: recover [(epoch, nonce, Ks)] from the response. *)

val fresh_grant :
  master:Master_key.t -> rng:(int -> string) -> src:Net.Ipaddr.t ->
  int * string * string
(** Mint a new [(epoch, nonce, Ks)] for [src] at the current epoch — used
    for refresh stamping (§3.2) and reverse-direction requests (§3.3). *)

(** {1 Whole-packet transforms} *)

type forward_result =
  | Forwarded of Net.Packet.t  (** rewritten packet, ready to send on *)
  | Rejected of string  (** reason, for counters/logs *)

val forward_outside_data :
  master:Master_key.t ->
  rng:(int -> string) ->
  self:Net.Ipaddr.t ->
  Net.Packet.t ->
  Shim.data ->
  forward_result
(** Packet 3 -> 4 of Fig. 2: arriving from an outside source, recover
    [Ks], unblind the customer destination, verify the tag, honour a key
    request by stamping a refresh grant, and re-address the packet to the
    customer (the source address stays the initiator's, as in Fig. 2).
    The forwarded shim carries the neutralizer's address ([self]) in the
    now-spent [enc_addr] field — Fig. 2 packet 4 includes "Neutralizer's
    IP" precisely so a multi-homed customer answers through the provider
    that delivered the request. DSCP is preserved (§3.4). *)

val forward_return_data :
  master:Master_key.t ->
  self:Net.Ipaddr.t ->
  Net.Packet.t ->
  epoch:int ->
  nonce:string ->
  initiator:Net.Ipaddr.t ->
  forward_result
(** Packet 5 -> 6 of Fig. 2: arriving from a customer, blind the customer
    source address under the initiator's [Ks], set source to the anycast
    address and destination to the initiator. *)
