(* Property suite for the compositional policy DSL.

   Two contracts pinned with qcheck over seeded Dsl_gen draws:

   - the classifier-table compiler is byte-identical to the reference
     interpreter on whole-grammar random policies x random observations
     (the same differential the E15 fuzzer sweeps at scale);
   - an epoch-consistent swap never lets a packet see two policy
     versions: mixed_epoch_verdicts stays 0 on random policy pairs and
     flip times, while naive mode (consistent:false) demonstrably
     tears on the same timeline.

   Alongside: the Control audit digest is bit-identical at engine shard
   counts 1/2/4 on a live multi-domain world with a mid-run swap — the
   same invariance bar the pdes/scale suites set.

   Every generator draw derives from POLICY_SEED (default 2006), so a
   CI failure replays exactly; the @dsl alias pins it. *)

open Discrimination
module Prng = Fault.Prng

let root_seed = Prng.env_seed "POLICY_SEED" ~default:2006

let () =
  Printf.printf "dsl root seed: %d (override with POLICY_SEED)\n%!" root_seed

(* qcheck draws a small offset; the Prng stream for a case derives from
   the root seed, a per-test label, and that offset — adding a test does
   not shift the streams of the others. *)
let rng_for label offset =
  Prng.split (Prng.create ~seed:root_seed) ~label:(label ^ string_of_int offset)

let prop ?(count = 10) ~name ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

let offset_gen = QCheck2.Gen.(0 -- 1_000_000)

(* ---- compiled table vs reference interpreter ---- *)

let test_compiled_eq_interp =
  prop ~count:300 ~name:"compiled table = reference interpreter"
    ~print:string_of_int offset_gen
    (fun offset ->
      let rng = rng_for "interp" offset in
      let domain =
        if Prng.int rng 5 = 0 then None else Some (Prng.int rng 4)
      in
      let pol = Dsl_gen.gen_policy ~domains:[| 0; 1; 2; 3 |] rng in
      let it = Dsl.interp_create pol in
      let ct = Dsl.compile ?domain pol in
      let ok = ref true in
      for k = 0 to 39 do
        let at = Int64.of_int ((k * 1_000_000) + Prng.int rng 999_983) in
        let o = Dsl_gen.gen_obs rng ~at in
        let a = Dsl.verdict_to_string (Dsl.interpret ?domain it o) in
        let b = Dsl.verdict_to_string (Dsl.verdict ct o) in
        if a <> b then ok := false
      done;
      !ok)

(* ---- consistent updates on a live chain world ---- *)

(* d0 --100ms-- d1 --100ms-- d2, a host at each end. Long inter-domain
   latencies guarantee a packet sent shortly before the flip is still
   in flight when it lands, which is exactly the torn-update window. *)
let chain_world ~shards =
  let topo = Net.Topology.create () in
  let d0 = Net.Topology.add_domain topo ~name:"d0" ~prefix:"10.1.0.0/16" in
  let d1 = Net.Topology.add_domain topo ~name:"d1" ~prefix:"10.2.0.0/16" in
  let d2 = Net.Topology.add_domain topo ~name:"d2" ~prefix:"10.3.0.0/16" in
  let r0 = Net.Topology.add_node topo ~domain:d0 ~kind:Router ~name:"r0" in
  let r1 = Net.Topology.add_node topo ~domain:d1 ~kind:Router ~name:"r1" in
  let r2 = Net.Topology.add_node topo ~domain:d2 ~kind:Router ~name:"r2" in
  let a = Net.Topology.add_node topo ~domain:d0 ~kind:Host ~name:"a" in
  let b = Net.Topology.add_node topo ~domain:d2 ~kind:Host ~name:"b" in
  let link x y lat =
    Net.Topology.add_link topo x y ~bandwidth_bps:1_000_000_000 ~latency:lat ()
  in
  link a.nid r0.nid 5_000_000L;
  link r0.nid r1.nid 100_000_000L;
  link r1.nid r2.nid 100_000_000L;
  link r2.nid b.nid 5_000_000L;
  let engine =
    Net.Engine.create ~obs:(Obs.Registry.create ()) ~shards ~topo ()
  in
  let net = Net.Network.create engine topo in
  (topo, engine, net, [ d0; d1; d2 ], a, b)

let send_at (topo : Net.Topology.t) engine net ~shards ~at
    ~(src : Net.Topology.node) ~(dst : Net.Topology.node) payload =
  let shard = Net.Topology.shard_of topo ~shards src.Net.Topology.nid in
  ignore
    (Net.Engine.post engine ~shard ~at (fun () ->
         Net.Network.send net ~from:src.Net.Topology.nid
           (Net.Packet.make ~protocol:Net.Packet.Udp ~dst_port:7
              ~src:src.Net.Topology.addr ~dst:dst.Net.Topology.addr payload))
      : Net.Engine.handle)

(* The anomaly and its cure, on one timeline: a packet stamped before
   the flip crosses it mid-flight. Naive installation judges its later
   hops by the new epoch (mixed > 0); consistent installation keeps
   every hop on the stamped version (mixed = 0). *)
let swap_timeline ~consistent =
  let topo, engine, net, domains, a, b = chain_world ~shards:1 in
  let ctl =
    Dsl.Control.install ~consistent net ~domains
      (Dsl.Rule (Dsl.Protocol 17, Dsl.Set_dscp 34))
  in
  Dsl.Control.swap ctl ~at:150_000_000L (Dsl.Rule (Dsl.True, Dsl.Delay 1_000_000L));
  (* hops at ~5 ms (d0, pre-flip), ~105 ms (d1, pre-flip), ~205/210 ms
     (d2, post-flip) *)
  send_at topo engine net ~shards:1 ~at:0L ~src:a ~dst:b "p-straddle";
  (* parked event so the clock passes the flip even if the packet dies *)
  ignore (Net.Engine.schedule engine ~delay:400_000_000L (fun () -> ())
          : Net.Engine.handle);
  Net.Network.run net;
  ctl

let test_naive_swap_tears () =
  let ctl = swap_timeline ~consistent:false in
  Alcotest.(check bool) "naive mode mixes epochs mid-flight" true
    (Dsl.Control.mixed_epoch_verdicts ctl > 0)

let test_consistent_swap_holds () =
  let ctl = swap_timeline ~consistent:true in
  Alcotest.(check int) "consistent mode never mixes" 0
    (Dsl.Control.mixed_epoch_verdicts ctl);
  Alcotest.(check int) "swap took effect" 1 (Dsl.Control.epoch ctl);
  Alcotest.(check bool) "every hop rendered a verdict" true
    (Dsl.Control.verdicts ctl >= 3)

let test_no_mixed_epoch =
  prop ~count:40
    ~name:"consistent swap: no packet observes a mixed-epoch table"
    ~print:string_of_int offset_gen
    (fun offset ->
      let rng = rng_for "swap" offset in
      let topo, engine, net, domains, a, b = chain_world ~shards:1 in
      let p0 = Dsl_gen.gen_policy ~domains:(Array.of_list domains) rng in
      let p1 = Dsl_gen.gen_policy ~domains:(Array.of_list domains) rng in
      let ctl = Dsl.Control.install net ~domains p0 in
      let flip = Int64.of_int (20_000_000 + Prng.int rng 380_000_000) in
      Dsl.Control.swap ctl ~at:flip p1;
      for k = 0 to 11 do
        let at = Int64.of_int (Prng.int rng 300_000_000) in
        let src, dst = if k land 1 = 0 then (a, b) else (b, a) in
        send_at topo engine net ~shards:1 ~at ~src ~dst
          (Printf.sprintf "pkt-%06d-%02d" offset k)
      done;
      ignore (Net.Engine.schedule engine ~delay:800_000_000L (fun () -> ())
              : Net.Engine.handle);
      Net.Network.run net;
      Dsl.Control.mixed_epoch_verdicts ctl = 0)

(* ---- shard-count invariance of the audited swap ---- *)

let sharded_swap_digest ~shards =
  let topo, engine, net, domains, a, b = chain_world ~shards in
  let rng = Prng.split (Prng.create ~seed:root_seed) ~label:"sharded" in
  let p0 = Dsl_gen.gen_policy ~domains:(Array.of_list domains) rng in
  let p1 = Dsl_gen.gen_policy ~domains:(Array.of_list domains) rng in
  let ctl = Dsl.Control.install ~audit:true net ~domains p0 in
  Dsl.Control.swap ctl ~at:150_000_000L p1;
  for k = 0 to 15 do
    let at = Int64.of_int (k * 19_000_000) in
    let src, dst = if k land 1 = 0 then (a, b) else (b, a) in
    send_at topo engine net ~shards ~at ~src ~dst
      (Printf.sprintf "shard-pkt-%02d" k)
  done;
  ignore (Net.Engine.schedule engine ~delay:800_000_000L (fun () -> ())
          : Net.Engine.handle);
  Net.Network.run net;
  ( Dsl.Control.audit_digest ctl,
    Dsl.Control.verdicts ctl,
    Dsl.Control.hits ctl,
    Dsl.Control.mixed_epoch_verdicts ctl )

let test_sharded_swap_invariance () =
  let base = sharded_swap_digest ~shards:1 in
  let _, _, _, mixed = base in
  Alcotest.(check int) "no mixed epochs at shards=1" 0 mixed;
  List.iter
    (fun shards ->
      let d = sharded_swap_digest ~shards in
      if d <> base then
        Alcotest.failf
          "audited swap diverged at shards=%d (digest/verdicts/hits/mixed)"
          shards)
    [ 2; 4 ]

(* ---- swap API misuse ---- *)

let test_swap_validation () =
  let _, engine, net, domains, _, _ = chain_world ~shards:1 in
  let ctl = Dsl.Control.install net ~domains Dsl.Nil in
  Dsl.Control.swap ctl ~at:50_000_000L (Dsl.Rule (Dsl.True, Dsl.Drop));
  (* a second stage before the first takes effect must be refused *)
  (match Dsl.Control.swap ctl ~at:60_000_000L Dsl.Nil with
   | () -> Alcotest.fail "double-staged swap accepted"
   | exception Invalid_argument _ -> ());
  ignore (Net.Engine.schedule engine ~delay:100_000_000L (fun () -> ())
          : Net.Engine.handle);
  Net.Network.run net;
  (* past-dated swaps must be refused *)
  match Dsl.Control.swap ctl ~at:10_000_000L Dsl.Nil with
  | () -> Alcotest.fail "past-dated swap accepted"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "dsl"
    [ ( "differential",
        [ test_compiled_eq_interp ] );
      ( "consistent-updates",
        [ Alcotest.test_case "naive swap tears" `Quick test_naive_swap_tears;
          Alcotest.test_case "consistent swap holds" `Quick
            test_consistent_swap_holds;
          test_no_mixed_epoch;
          Alcotest.test_case "audit digest invariant at shards 1/2/4" `Quick
            test_sharded_swap_invariance;
          Alcotest.test_case "swap validation" `Quick test_swap_validation
        ] )
    ]
