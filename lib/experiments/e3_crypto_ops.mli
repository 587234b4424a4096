(** Experiment E3 — raw cryptographic operation rates (§4).

    Paper: "our openssl speed tests show that the CPU of the neutralizer
    can perform the cryptographic operations at 2.35 million per second"
    (128-bit AES used for both hashing and encryption/decryption).

    We report every primitive on the neutralizer's two hot paths plus the
    end-to-end layer, so the cost model in {!Core.Protocol.default_costs}
    is auditable against measurements, and the inline one-time key
    generation ([rsa512-keygen-cold]) that §4 moves offline. *)

type row = { op : string; ops_per_sec : float }

type result = { rows : row list; paper_aes_ops : float }

val run : ?min_time:float -> unit -> result
val print : result -> unit
