(** Authoritative record store for one or more names. *)

type t

val create : unit -> t
val add : t -> name:string -> Record.rr -> unit
val lookup : t -> name:string -> Record.qtype -> Record.rr list
val mem : t -> name:string -> bool

(** Convenience for the §3.1 bootstrap triple: address, neutralizer
    anycast addresses, end-to-end public key. *)
val publish_site :
  t ->
  name:string ->
  addr:Net.Ipaddr.t ->
  neutralizers:Net.Ipaddr.t list ->
  key:Crypto.Rsa.public ->
  unit
