(* Tests for the comparison baselines: vanilla forwarding and the onion
   routing comparator of §5. *)

let addr = Net.Ipaddr.of_string

(* ---- vanilla ---- *)

let fib =
  Baseline.Vanilla.fib_of_prefixes
    [ (Net.Ipaddr.Prefix.of_string "0.0.0.0/0", 0);
      (Net.Ipaddr.Prefix.of_string "10.0.0.0/8", 1);
      (Net.Ipaddr.Prefix.of_string "10.5.0.0/16", 2);
      (Net.Ipaddr.Prefix.of_string "10.5.3.0/24", 3);
      (Net.Ipaddr.Prefix.of_string "192.168.0.0/16", 4)
    ]

let test_longest_prefix_match () =
  let check name a hop =
    Alcotest.(check (option int)) name (Some hop) (Baseline.Vanilla.lookup fib (addr a))
  in
  check "default" "8.8.8.8" 0;
  check "/8" "10.9.9.9" 1;
  check "/16" "10.5.9.9" 2;
  check "/24 wins" "10.5.3.7" 3;
  check "other /16" "192.168.77.1" 4

let test_vanilla_process () =
  let p = Net.Packet.make ~src:(addr "1.1.1.1") ~dst:(addr "10.5.3.9") "x" in
  (match Baseline.Vanilla.process fib p with
   | Some (hop, p') ->
     Alcotest.(check int) "hop" 3 hop;
     Alcotest.(check int) "ttl decremented" 63 p'.ttl
   | None -> Alcotest.fail "no route");
  let dead = Net.Packet.make ~ttl:1 ~src:(addr "1.1.1.1") ~dst:(addr "10.5.3.9") "x" in
  Alcotest.(check bool) "ttl expiry" true (Baseline.Vanilla.process fib dead = None)

let test_empty_fib () =
  let empty = Baseline.Vanilla.fib_of_prefixes [] in
  Alcotest.(check (option int)) "no route" None
    (Baseline.Vanilla.lookup empty (addr "1.2.3.4"))

(* ---- onion ---- *)

let relays n =
  let st = Random.State.make [| 0xba |] in
  List.init n (fun i ->
      Baseline.Onion.create_relay ~key:(Scenario.Keyring.e2e (10 + i)) ~id:i st)

let rng seed =
  let d = Crypto.Drbg.create ~seed in
  fun n -> Crypto.Drbg.generate d n

let test_onion_roundtrip_paths () =
  List.iter
    (fun hops ->
      let path = relays hops in
      let c = Baseline.Onion.build_circuit ~rng:(rng "o1") ~path in
      Alcotest.(check (option string))
        (Printf.sprintf "%d hops" hops)
        (Some "the payload")
        (Baseline.Onion.transit c "the payload"))
    [ 1; 2; 3; 4 ]

let test_onion_accounting () =
  let path = relays 3 in
  let n_circuits = 5 in
  let circuits =
    List.init n_circuits (fun i ->
        Baseline.Onion.build_circuit ~rng:(rng (Printf.sprintf "o%d" i)) ~path)
  in
  List.iter
    (fun r ->
      Alcotest.(check int) "state per relay" n_circuits
        (Baseline.Onion.relay_state_entries r);
      Alcotest.(check int) "one pubkey op per circuit" n_circuits
        (Baseline.Onion.relay_pubkey_ops r))
    path;
  Alcotest.(check int) "client ops" 3
    (Baseline.Onion.client_pubkey_ops (List.hd circuits))

let test_onion_symmetric_ops () =
  let path = relays 3 in
  let c = Baseline.Onion.build_circuit ~rng:(rng "sym") ~path in
  for _ = 1 to 10 do
    ignore (Baseline.Onion.transit c "x")
  done;
  let total =
    List.fold_left (fun a r -> a + Baseline.Onion.relay_symmetric_ops r) 0 path
  in
  Alcotest.(check int) "3 layer-peels per packet" 30 total

let test_onion_bad_input () =
  let path = relays 2 in
  let relay = List.hd path in
  Alcotest.(check bool) "garbage" true
    (Baseline.Onion.relay_process relay "garbage-blob-without-circuit" = `Bad);
  Alcotest.(check bool) "short" true (Baseline.Onion.relay_process relay "x" = `Bad)

let test_onion_wrong_relay () =
  let path = relays 3 in
  let c = Baseline.Onion.build_circuit ~rng:(rng "wr") ~path in
  let first = Baseline.Onion.send c "secret" in
  (* Delivering the first-hop onion to the *last* relay peels with the
     wrong key and fails the structure check. *)
  let last = List.nth path 2 in
  (match Baseline.Onion.relay_process last first with
   | `Bad -> ()
   | `Exit _ -> Alcotest.fail "wrong relay produced exit"
   | `Forward _ -> Alcotest.fail "wrong relay forwarded")

let () =
  Alcotest.run "baseline"
    [ ( "vanilla",
        [ Alcotest.test_case "longest prefix" `Quick test_longest_prefix_match;
          Alcotest.test_case "process" `Quick test_vanilla_process;
          Alcotest.test_case "empty fib" `Quick test_empty_fib
        ] );
      ( "onion",
        [ Alcotest.test_case "roundtrip 1-4 hops" `Quick
            test_onion_roundtrip_paths;
          Alcotest.test_case "state+pubkey accounting" `Quick
            test_onion_accounting;
          Alcotest.test_case "symmetric ops" `Quick test_onion_symmetric_ops;
          Alcotest.test_case "bad input" `Quick test_onion_bad_input;
          Alcotest.test_case "wrong relay" `Quick test_onion_wrong_relay
        ] )
    ]
