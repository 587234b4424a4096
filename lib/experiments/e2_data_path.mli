(** Experiment E2 — data-path throughput (§4).

    Paper: 64-byte UDP payloads become 112-byte neutralized packets; the
    neutralizer outputs decrypted-destination packets at 422 kpps versus
    600 kpps for vanilla IP forwarding of equal-size packets — a 0.70
    ratio, bounded by the hardware rather than the crypto.

    We measure the per-packet transform of the forward path (recover
    [Ks], unblind the destination, verify the tag, rebuild the shim), the
    return path (blind the customer source), and a vanilla forwarding
    decision (FIB longest-prefix match + TTL + header fold) on same-size
    packets. *)

type result = {
  forward_pps : float;
  return_pps : float;
  vanilla_pps : float;
  neutralized_packet_bytes : int;
  vanilla_packet_bytes : int;
  ratio : float;  (** forward / vanilla; paper: 422/600 = 0.70 *)
  paper_forward_pps : float;
  paper_vanilla_pps : float;
}

val run : ?min_time:float -> unit -> result
val print : result -> unit

val golden_rows : unit -> string list list
(** A deterministic observation table — the fixed-seed blind output and
    a chain of forwarded/returned packets with wire-byte digests.
    Byte-identical on every run; test_experiments pins its SHA-256 as a
    golden digest. *)
