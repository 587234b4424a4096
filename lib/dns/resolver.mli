(** DNS server and client over the simulated network.

    Two query modes reproduce §3.1:

    - {b plain}: the query name travels in cleartext, so "a discriminatory
      ISP may eavesdrop on its customer's DNS queries and discriminate DNS
      queries based on the query destination";
    - {b encrypted}: the query is sealed to the resolver's public key and
      the response comes back under the same exchange secret, so the
      access ISP sees only that a DNS exchange happened — the paper's
      countermeasure of sending encrypted queries "to DNS resolvers that
      are not controlled by the discriminatory ISP". *)

type server

val serve :
  Net.Host.t ->
  zone:Zone.t ->
  ?port:int ->
  ?signer:Crypto.Rsa.private_key ->
  ?decryption_key:Crypto.Rsa.private_key ->
  ?rng:(int -> string) ->
  unit ->
  server
(** [signer] signs answer sections; [decryption_key] enables the encrypted
    query mode ([rng] is then required to seal responses).

    The server signs each RRset once per content version, as DNSSEC's
    offline RRSIGs do. For every (qname, qtype) it has answered with
    [No_error] it stores the signing input it signed and the signature,
    and reuses the signature while the current input is byte-equal; a
    zone change is re-signed on its next query. [Rsa.sign] is
    deterministic, so reply bytes are those of a per-query signer.
    NXDOMAIN answers are signed per query and never stored, so the
    table is bounded by the zone's names times the five qtypes, not by
    what clients ask. *)

val queries_served : server -> int

type error = Timeout | Bad_response | Bad_signature | Refused

val pp_error : Format.formatter -> error -> unit

val resolve :
  Net.Host.t ->
  server:Net.Ipaddr.t ->
  ?port:int ->
  ?encrypt_to:Crypto.Rsa.public ->
  ?rng:(int -> string) ->
  ?verify:Crypto.Rsa.public ->
  ?timeout:int64 ->
  name:string ->
  qtype:Record.qtype ->
  (((Record.rr list), error) result -> unit) ->
  unit
(** Asynchronous lookup; the callback fires exactly once. [encrypt_to]
    (with [rng]) switches to the encrypted mode; [verify] checks the
    response signature. *)

type site_info = {
  addrs : Net.Ipaddr.t list;
  neutralizers : Net.Ipaddr.t list;
  key : Crypto.Rsa.public option;
}

val site_info_of_answers : Record.rr list -> site_info

val bootstrap :
  Net.Host.t ->
  server:Net.Ipaddr.t ->
  ?port:int ->
  ?encrypt_to:Crypto.Rsa.public ->
  ?rng:(int -> string) ->
  ?verify:Crypto.Rsa.public ->
  ?timeout:int64 ->
  name:string ->
  ((site_info, error) result -> unit) ->
  unit
(** One [Q_ANY] round trip fetching the full §3.1 triple for [name]. *)
