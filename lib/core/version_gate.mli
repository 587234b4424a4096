(** Downgrade prevention for the shim wire protocol.

    The rule is ratchet-shaped: remember the highest wire version each
    peer has ever spoken, and refuse anything lower. A peer that once
    sent a {!Protocol.wire_version} frame is never again accepted at
    {!Protocol.wire_version_legacy} — a middlebox stripping the version
    byte (turning v2 frames back into legacy-shaped v1 ones) produces
    counted [downgrade] rejects, not a silent fallback.

    First contact at any known version is admitted: the gate prevents
    {e downgrade}, it does not demand v2 from peers that never upgraded.

    Persistence mirrors the secret material it protects. The
    neutralizer's gate survives {!Neutralizer.crash}/[restart] just as
    the master key does (the box forgets flow state, not its security
    posture); the client's gate is wiped by {!Client.reset}, which
    models a fresh host that also lost its grants. *)

type verdict = Admitted | Downgrade of { seen : int; got : int }

type t

val create : unit -> t

val admit : t -> peer:Net.Ipaddr.t -> version:int -> verdict
(** Record-and-check: admits equal-or-higher versions (ratcheting the
    peer's floor up), refuses lower ones without updating state. *)

val receive : t -> peer:Net.Ipaddr.t -> string option -> (Shim.t, string) result
(** The inbound gate every endpoint runs on a packet's shim bytes:
    strict-decode ({!Shim.decode_versioned}), then {!admit} the frame's
    version from [peer]. [Error] carries the reject label —
    ["missing"] when the packet has no shim, a {!Shim.error_label} when
    the decoder refuses it, ["downgrade"] when the gate does. Counting
    the reject is the caller's job. *)

val seen : t -> peer:Net.Ipaddr.t -> int option
(** Highest version [peer] has spoken, if any. *)

val clear : t -> unit
(** Forget every peer — crash amnesia for hosts, not for boxes. *)

val peer_count : t -> int
