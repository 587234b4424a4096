(** Seeded generators over the {!Dsl} policy grammar and the
    observation space — the shared substrate of the differential policy
    fuzzer.

    Deterministic by construction: every generator draws from a
    {!Fault.Prng.t} stream, so [POLICY_SEED] (plus a regime index) fully
    reproduces any policy or observation batch —
    whether drawn from the qcheck suites in [test/test_dsl.ml] or from
    [netneutral fuzzpolicy] (experiment E15), which is why this lives in
    the library and not the test tree.

    Generated numeric thresholds sit on coarse grids deliberately: an
    entropy cut inside the band where random ciphertext payloads
    actually land would flip verdicts on per-payload binomial noise and
    make paired-world comparisons meaningless. *)

val gen_policy :
  domains:Net.Topology.domain_id array -> Fault.Prng.t -> Dsl.policy
(** Whole-grammar policy generator, four combinator levels deep ([Seq]
    operands are kept shallow so compiled tables stay small); [domains]
    is the pool {!Dsl.In_domain} draws from. *)

val gen_obs : Fault.Prng.t -> at:int64 -> Net.Observation.t
(** A wire view drawn from the Figure-1 address plan (including the
    anycast neutralizer address), the well-known port pool, and payload
    variants spanning empty, plaintext with DPI markers (SIP/HTTP),
    high-entropy bytes, and shim frames of key-setup and data kinds. *)
