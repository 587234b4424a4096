(** E15 — differential policy fuzzer ([netneutral fuzzpolicy]).

    Sweeps thousands of {!Discrimination.Dsl_gen}-generated
    discrimination regimes, in two tiers sharing one [POLICY_SEED]:
    a semantic tier (compiled classifier tables vs the reference
    interpreter, byte-for-byte) and an end-to-end tier (paired
    exposed-vs-neutralized Figure-1 worlds with epoch-consistent
    mid-window policy swaps, asserting the paper's §3.6 invariants:
    selectivity collapses, inert regimes cost nothing, classifier
    verdicts collapse to [Key_setup]/[Encrypted], and no packet sees a
    mixed epoch). *)

type violation = { v_regime : int; v_kind : string; v_detail : string }

type result = {
  seed : int;
  regimes : int;
  obs_per_regime : int;
  compiled_mismatches : int;
  max_table_rules : int;
  e2e_windows : int;
  packets_per_window : int;
  baseline_target : int;
  baseline_bystander : int;
  baseline_x_target : int;
  baseline_x_bystander : int;
  active_windows : int;
  inert_windows : int;
  exposed_selective : int;
  neutral_selective : int;
  goodput_violations : int;
  collapse_violations : int;
  mixed_epochs : int;
  epochs : int;
  stamped : int;
  violations : violation list;
  digest : string;
  seconds : float;
  ok : bool;
}

val run :
  ?seed:int ->
  ?regimes:int ->
  ?obs_per_regime:int ->
  ?e2e_windows:int ->
  ?packets_per_window:int ->
  unit ->
  result
(** Defaults: seed 2006, 1200 semantic regimes x 48 observations, 160
    e2e windows x 24 packets.
    Fully deterministic for a given seed; [result.digest] folds every
    verdict and per-window integer. *)

val print : result -> unit
val to_json : result -> string
