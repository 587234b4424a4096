(** Adaptive traffic masking — the countermeasure the paper reserves for
    traffic-analysis attacks: "if in the practical deployment ISPs can
    use traffic analysis to successfully discriminate, we will consider
    incorporating mechanisms such as adaptive traffic masking" (§2,
    citing Timmerman 1997).

    Two composable mechanisms:

    - {b padding}: {!wrap} length-prefixes an application payload and
      pads it to a fixed bucket, so all packets of a masked flow share
      one wire size; {!unwrap} recovers the payload and recognises
      dummies;
    - {b pacing}: a {!Pacer} emits exactly one packet per interval —
      queued application payloads when there are any, dummy (cover)
      payloads otherwise — so inter-packet timing carries no signal.

    A flow that is padded and paced exposes only its endpoint pair and
    total duration; rate and size signatures are gone. The cost —
    measured by experiment E9 — is padding overhead plus cover traffic.

    Masked payloads travel {e inside} the end-to-end encrypted session,
    so the wire never reveals which packets were dummies. *)

val default_bucket : int
(** 512 bytes. *)

val wrap : ?bucket:int -> string -> string
(** [wrap payload]: ['D'] + length + payload, zero-padded to the next
    multiple of [bucket]. Raises [Invalid_argument] if [bucket <= 0]. *)

val dummy : ?bucket:int -> unit -> string
(** A cover payload of the same wire size as a single-bucket {!wrap}. *)

val unwrap : string -> string option option
(** [Some (Some payload)] for data, [Some None] for a dummy, [None] for
    bytes that are not a masked payload at all. *)

module Pacer : sig
  type t

  val create :
    Net.Engine.t ->
    interval:int64 ->
    ?bucket:int ->
    emit:(string -> unit) ->
    duration:int64 ->
    unit ->
    t
  (** Starts ticking immediately: every [interval] ns, for [duration] ns,
      [emit] is called with one wrapped payload (queued data if present,
      otherwise a dummy). *)

  val offer : t -> string -> unit
  (** Queue an application payload for the next tick. *)

  val sent_data : t -> int
  val sent_dummies : t -> int
end
