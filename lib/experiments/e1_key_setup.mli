(** Experiment E1 — key-setup throughput (§4).

    Paper: a Click-based neutralizer outputs key-setup responses at
    24.4 kpps; with a one-hour master key, one commodity PC therefore
    serves 88 million sources.

    We measure the same operation on this repository's stack: parse the
    one-time 512-bit public key, derive [Ks] with the keyed hash, pad and
    RSA-encrypt (e = 3) the (epoch, nonce, Ks) grant, and emit the
    response shim. *)

type result = {
  ops_per_sec : float;
  sources_per_hour : float;
  paper_ops_per_sec : float;
  paper_sources_per_hour : float;
}

val run : ?min_time:float -> unit -> result
val print : result -> unit

val golden_rows : unit -> string list list
(** A deterministic observation table — 16 fixed-seed key-setup
    responses with their grant fields and shim digests. Byte-identical
    on every run; test_experiments pins its SHA-256 as a golden
    digest. *)
