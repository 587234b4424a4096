(** DNS resource records for the bootstrap step (§3.1).

    A destination publishes, alongside its address, the anycast addresses
    of its providers' neutralizers and its end-to-end public key: "this
    bootstrapping information can be stored at a destination's DNS
    records, and a source may obtain this information via DNS queries." *)

type rr =
  | A of Net.Ipaddr.t  (** ordinary address record *)
  | Neut of Net.Ipaddr.t
      (** one neutralizer anycast address; multi-homed sites publish
          several (§3.5) *)
  | Key of string  (** serialized {!Crypto.Rsa.public} end-to-end key *)
  | Txt of string

type qtype = Q_A | Q_NEUT | Q_KEY | Q_TXT | Q_ANY

val matches : qtype -> rr -> bool
val qtype_tag : qtype -> int
val qtype_of_tag : int -> qtype option
val encode_rr : Buffer.t -> rr -> unit
val decode_rr : string -> int -> (rr * int) option
(** [decode_rr s off] returns the record and the next offset. *)

val pp_rr : Format.formatter -> rr -> unit
