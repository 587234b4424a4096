(* Shape regression tests for the experiment harnesses: every reproduced
   claim's *direction* is pinned, so a refactor that silently inverts a
   result fails CI even though the code still runs. Parameters are scaled
   down; the full-size numbers live in EXPERIMENTS.md. *)

let check_gt name a b =
  if not (a > b) then Alcotest.failf "%s: expected %.3f > %.3f" name a b

let check_lt name a b = check_gt name b a

(* E1/E2/E3: cost orderings of the micro-measurements. *)
let test_micro_orderings () =
  let e1 = Experiments.E1_key_setup.run ~min_time:0.1 () in
  let e2 = Experiments.E2_data_path.run ~min_time:0.2 () in
  check_gt "data path faster than key setup" e2.forward_pps e1.ops_per_sec;
  (* After the AES key-schedule optimization the neutralized path runs at
     parity with our software-FIB vanilla path, so the claim under test
     is a parity band, not an ordering (which flips with scheduler
     noise): each path within 3x of the other. *)
  check_gt "neutralized within 3x of vanilla" (e2.forward_pps *. 3.0)
    e2.vanilla_pps;
  check_gt "vanilla within 3x of neutralized" (e2.vanilla_pps *. 3.0)
    e2.forward_pps;
  Alcotest.(check int) "paper packet size" 112 e2.neutralized_packet_bytes;
  Alcotest.(check int) "vanilla packet size" 92 e2.vanilla_packet_bytes;
  let e3 = Experiments.E3_crypto_ops.run ~min_time:0.05 () in
  let rate name =
    (List.find (fun r -> r.Experiments.E3_crypto_ops.op = name) e3.rows)
      .ops_per_sec
  in
  check_gt "aes much faster than rsa encrypt" (rate "aes128-block")
    (rate "rsa512-e3-encrypt");
  check_gt "e=3 encrypt much faster than CRT decrypt"
    (rate "rsa512-e3-encrypt")
    (rate "rsa512-crt-decrypt");
  check_gt "rsa512 faster than rsa1024" (rate "rsa512-crt-decrypt")
    (rate "rsa1024-crt-decrypt");
  check_gt "a precomputed key beats inline keygen" (rate "rsa512-crt-decrypt")
    (rate "rsa512-keygen-cold")

(* E4: the section-5 comparison. *)
let test_e4_shape () =
  let r = Experiments.E4_vs_onion.run ~sources:10 ~flows_per_source:3 ~packets_per_flow:5 () in
  Alcotest.(check int) "neutralizer keeps no state" 0
    r.neutralizer.state_entries;
  check_gt "onion keeps per-flow state"
    (float_of_int r.onion.state_entries) 0.0;
  check_gt "onion does more network pubkey ops"
    (float_of_int r.onion.pubkey_ops_network)
    (float_of_int r.neutralizer.pubkey_ops_network);
  Alcotest.(check int) "one pubkey op per source" r.sources
    r.neutralizer.pubkey_ops_network

(* E5: targeting dies, tiering survives. *)
let test_e5_shape () =
  let r = Experiments.E5_voip.run ~duration_s:6.0 () in
  let mos i = (List.nth r.rows i).Experiments.E5_voip.mos in
  check_gt "baseline is a clean call" (mos 0) 4.0;
  check_lt "targeted plain call collapses" (mos 1) 3.0;
  check_gt "neutralized call restored" (mos 2) 4.0;
  check_gt "EF tier clean" (mos 3) 4.0;
  check_lt "BE tier suffers" (mos 4) (mos 3 -. 1.0)

(* E8: the market asymmetry. *)
let test_e8_shape () =
  let r = Experiments.E8_market.run () in
  let row i = List.nth r.rows i in
  check_gt "targeting keeps share" (row 1).discriminator_share 0.4;
  check_lt "targeting kills innovator" (row 1).innovator_users 0.05;
  check_gt "neutralizer saves innovator" (row 2).innovator_users 0.95;
  check_lt "wholesale degradation churns" (row 3).discriminator_share 0.2

(* E9: masking collapses the traffic analyst. *)
let test_e9_shape () =
  let r = Experiments.E9_traffic_analysis.run ~duration_s:4.0 () in
  check_gt "unmasked accuracy high" r.unmasked_accuracy 0.6;
  check_lt "masked accuracy collapses" r.masked_accuracy
    (r.unmasked_accuracy -. 0.3);
  check_gt "masking costs bandwidth"
    (float_of_int r.masked_wire_bytes)
    (float_of_int r.unmasked_wire_bytes)

(* E10: the detector's three verdicts. *)
let test_e10_shape () =
  let r = Experiments.E10_detection.run ~duration_s:3.0 () in
  let row i = List.nth r.rows i in
  Alcotest.(check bool) "flags the discriminator" true (row 0).discriminated;
  Alcotest.(check bool) "clears the clean ISP" false (row 1).discriminated;
  Alcotest.(check bool) "uniform degradation not app-specific" false
    (row 2).discriminated;
  check_gt "but uniform degradation is visible" (row 2).app_loss 0.1

(* E11: selectivity analysis of the 3.6 vectors. *)
let test_e11_shape () =
  let r = Experiments.E11_blunt_instruments.run ~duration_s:6.0 () in
  let row i = List.nth r.rows i in
  check_gt "plain targeting is selective" (row 0).selectivity 1.5;
  List.iter
    (fun i ->
      check_lt
        (Printf.sprintf "policy %d is blunt" i)
        (Float.abs (row i).selectivity)
        0.3)
    [ 1; 2; 3; 4 ]

(* Ablations: direction of each design argument. *)
let test_ablations_shape () =
  let r = Experiments.Ablations.run ~min_time:0.05 () in
  check_gt "e=3 beats e=65537" r.a1.e3_ops r.a1.e65537_ops;
  check_lt "exposure is a couple RTTs" r.a2.exposure_ms 100.0;
  check_gt "refresh shrinks exposure massively" r.a2.without_refresh_ms
    (r.a2.exposure_ms *. 1000.0);
  check_gt "caching would be faster" r.a3.cached_ops r.a3.stateless_ops;
  Alcotest.(check int) "offload: box does no RSA" 0 r.a4.box_rsa_ops;
  Alcotest.(check bool) "offload: helper serves" true (r.a4.helper_rsa_ops > 0);
  Alcotest.(check bool) "offload: client completes" true r.a4.client_completed

(* Golden digests: the deterministic E1/E2 observation tables and the
   seeded E12 chaos table rendered and hashed, pinned byte-for-byte. Any
   change to the crypto, the shim encoding, the datapath grant chain or
   the fault timeline moves a digest and must be a conscious decision
   (re-run with the printed value to re-pin). *)

let digest_rows rows =
  Crypto.Sha256.digest_hex
    (String.concat "\n" (List.map (String.concat "|") rows))

let check_golden name expect rows =
  let got = digest_rows rows in
  if got <> expect then
    Alcotest.failf "%s: golden digest moved\n  expected %s\n  got      %s" name
      expect got

let test_golden_digests () =
  let e1 = Experiments.E1_key_setup.golden_rows () in
  let e2 = Experiments.E2_data_path.golden_rows () in
  let e12 =
    Experiments.E12_chaos.to_rows
      (Experiments.E12_chaos.run ~seed:7 ~duration_s:3.0 ())
  in
  (* Re-pinned for wire format v2: every shim frame now carries the
     version byte, which moves the E1/E2 shim digests and (through the
     DRBG draws) the seeded chaos table. *)
  check_golden "E1 key-setup table"
    "17da06e639c2ef49d5611f2fc93703de4ad70dcd238d177182a67424e2d47e71" e1;
  check_golden "E2 datapath table"
    "af4ae9b3a47d7ddc3a175fc66030b7caf6e4403cc5be9aecdb148562b4e16ac8" e2;
  check_golden "E12 chaos table (seed 7)"
    "b54c8bffe59ae4c2f55167bed941b0a1817682206de166e38cad71dc729a19a7" e12

(* E15: the differential policy fuzzer at smoke size. The digest folds
   every semantic-tier verdict string and every per-window goodput /
   epoch / collapse integer, so any drift in the DSL compiler, the
   generators, the consistent-update scheme or the paired worlds moves
   it. Invariant counters must also be identically zero — a digest
   match with violations would mean the pinning itself broke. *)
let test_e15_fuzz_smoke () =
  let r = Experiments.E15_regime_sweep.run ~seed:2006 ~regimes:40 ~e2e_windows:8 () in
  Alcotest.(check bool) "all invariants hold" true r.Experiments.E15_regime_sweep.ok;
  Alcotest.(check int) "no compiler/interpreter mismatches" 0
    r.Experiments.E15_regime_sweep.compiled_mismatches;
  Alcotest.(check int) "no mixed-epoch verdicts" 0
    r.Experiments.E15_regime_sweep.mixed_epochs;
  Alcotest.(check string) "E15 sweep digest (seed 2006)"
    "1ccb819de7afdc0de8357e01a39184b031b36290d16450253ff0dfc164321a3b"
    r.Experiments.E15_regime_sweep.digest

let () =
  Alcotest.run "experiments"
    [ ( "shapes",
        [ Alcotest.test_case "micro orderings (E1-E3)" `Slow
            test_micro_orderings;
          Alcotest.test_case "E4 vs onion" `Slow test_e4_shape;
          Alcotest.test_case "E5 voip" `Slow test_e5_shape;
          Alcotest.test_case "E8 market" `Slow test_e8_shape;
          Alcotest.test_case "E9 masking" `Slow test_e9_shape;
          Alcotest.test_case "E10 detection" `Slow test_e10_shape;
          Alcotest.test_case "E11 selectivity" `Slow test_e11_shape;
          Alcotest.test_case "ablations" `Slow test_ablations_shape
        ] );
      ( "goldens",
        [ Alcotest.test_case "E1/E2/E12 golden digests" `Quick
            test_golden_digests;
          Alcotest.test_case "E15 fuzz digest (seed 2006)" `Quick
            test_e15_fuzz_smoke
        ] )
    ]
