(* Tests for the graceful-degradation subsystem (lib/overload) and its
   integration points: token-bucket work conservation and breaker
   state-machine legality as qcheck properties, backoff determinism and
   jitter bounds, admission-control class ordering, Multihome's jittered
   avoidance windows, the client's breaker/retry-budget fail-fast paths,
   and the E13 acceptance bar (admission control + budgets sustain >= 80%
   of box capacity at 10x load while the vanilla protocol collapses
   below 50%).

   The long full-sweep acceptance run is gated behind OVERLOAD_SOAK=1
   (the @overload alias); the default run keeps to the quick sweep. *)

module TB = Overload.Token_bucket
module BR = Overload.Breaker
module BO = Overload.Backoff
module AD = Overload.Admission

let prop ?(count = 300) ~name ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

(* ---- token bucket: work conservation ---- *)

(* Over any horizon T the bucket grants at most rate * T + burst of
   cost, no matter how takes are spaced or sized. *)
let prop_bucket_conservation =
  let open QCheck2.Gen in
  let gen =
    triple
      (float_range 0.0 200.0) (* rate *)
      (float_range 0.5 50.0) (* burst *)
      (small_list (pair (int_bound 50_000_000) (float_range 0.1 3.0)))
  in
  prop ~name:"token bucket conserves work" ~print:(fun _ -> "bucket run") gen
    (fun (rate, burst, events) ->
      let b = TB.create { rate; burst } ~now:0L in
      let now = ref 0L in
      let granted_cost = ref 0.0 in
      List.iter
        (fun (dt, cost) ->
          now := Int64.add !now (Int64.of_int dt);
          if TB.take ~cost b ~now:!now then
            granted_cost := !granted_cost +. cost)
        events;
      let t_s = Int64.to_float !now *. 1e-9 in
      !granted_cost <= (rate *. t_s) +. burst +. 1e-6)

let test_bucket_basics () =
  let b = TB.create { rate = 10.0; burst = 2.0 } ~now:0L in
  Alcotest.(check bool) "starts full" true (TB.take b ~now:0L);
  Alcotest.(check bool) "burst of two" true (TB.take b ~now:0L);
  Alcotest.(check bool) "then empty" false (TB.take b ~now:0L);
  (* 100 ms at 10/s refills one token. *)
  Alcotest.(check bool) "refills with time" true (TB.take b ~now:100_000_000L);
  (* Time never runs backwards: an earlier now must not refill again. *)
  Alcotest.(check bool) "no refill from the past" false (TB.take b ~now:0L);
  Alcotest.(check int) "granted counted" 3 (TB.granted b);
  Alcotest.(check int) "denied counted" 2 (TB.denied b);
  Alcotest.check_raises "negative rate rejected"
    (Invalid_argument "Token_bucket.create: rate must be non-negative")
    (fun () -> ignore (TB.create { rate = -1.0; burst = 1.0 } ~now:0L))

(* ---- circuit breaker: state-machine legality ---- *)

type breaker_event = Advance of int | Succeed | Fail | Probe

let breaker_event_gen =
  let open QCheck2.Gen in
  oneof
    [ map (fun d -> Advance d) (int_bound 2_000_000);
      return Succeed;
      return Fail;
      return Probe
    ]

let legal_transition = function
  | BR.Closed, BR.Open (* threshold trip *)
  | BR.Open, BR.Half_open (* timeout elapsed *)
  | BR.Half_open, BR.Closed (* probe success *)
  | BR.Half_open, BR.Open (* probe failure *) ->
    true
  | _ -> false

let prop_breaker_transitions =
  let open QCheck2.Gen in
  let gen =
    pair (int_range 1 4 (* threshold *)) (list_size (int_bound 60) breaker_event_gen)
  in
  prop ~name:"breaker: every transition legal, no open->closed shortcut"
    ~print:(fun _ -> "breaker run")
    gen
    (fun (threshold, events) ->
      let b =
        BR.create
          ~config:
            { failure_threshold = threshold;
              open_timeout = 500_000L;
              half_open_probes = 1
            }
          ~now:0L ()
      in
      let now = ref 0L in
      List.iter
        (fun ev ->
          (match ev with
           | Advance d -> now := Int64.add !now (Int64.of_int d)
           | Probe -> ignore (BR.allow b ~now:!now)
           | Succeed -> BR.record_success b ~now:!now
           | Fail -> BR.record_failure b ~now:!now);
          ignore (BR.state b ~now:!now))
        events;
      let h = BR.history b in
      (match h with
       | (_, BR.Closed) :: _ -> ()
       | _ -> QCheck2.Test.fail_report "history must start Closed");
      let rec walk = function
        | (t1, s1) :: ((t2, s2) :: _ as rest) ->
          if Int64.compare t1 t2 > 0 then
            QCheck2.Test.fail_report "history times must be non-decreasing";
          if not (legal_transition (s1, s2)) then
            QCheck2.Test.fail_reportf "illegal transition %s -> %s"
              (BR.state_name s1) (BR.state_name s2);
          walk rest
        | [ _ ] | [] -> ()
      in
      walk h;
      true)

let test_breaker_cycle () =
  let config =
    { BR.failure_threshold = 2; open_timeout = 1_000_000L; half_open_probes = 1 }
  in
  let b = BR.create ~config ~now:0L () in
  Alcotest.(check bool) "closed allows" true (BR.allow b ~now:0L);
  BR.record_failure b ~now:0L;
  Alcotest.(check string) "one failure stays closed" "closed"
    (BR.state_name (BR.state b ~now:0L));
  BR.record_failure b ~now:0L;
  Alcotest.(check string) "threshold trips" "open"
    (BR.state_name (BR.state b ~now:0L));
  Alcotest.(check bool) "open refuses" false (BR.allow b ~now:500_000L);
  Alcotest.(check string) "timeout promotes to half-open" "half-open"
    (BR.state_name (BR.state b ~now:1_000_001L));
  Alcotest.(check bool) "one probe allowed" true (BR.allow b ~now:1_000_001L);
  Alcotest.(check bool) "probe slots exhausted" false
    (BR.allow b ~now:1_000_001L);
  BR.record_failure b ~now:1_000_002L;
  Alcotest.(check string) "probe failure re-opens" "open"
    (BR.state_name (BR.state b ~now:1_000_002L));
  Alcotest.(check string) "second timeout, second probe" "half-open"
    (BR.state_name (BR.state b ~now:2_000_003L));
  Alcotest.(check bool) "probe" true (BR.allow b ~now:2_000_003L);
  BR.record_success b ~now:2_000_004L;
  Alcotest.(check string) "probe success closes" "closed"
    (BR.state_name (BR.state b ~now:2_000_004L))

(* ---- backoff: determinism, growth, jitter bounds ---- *)

let backoff_test_config =
  { BO.base = 1_000_000L; cap = 64_000_000L; multiplier = 2.0; jitter = 0.5 }

let prop_backoff_bounds =
  let open QCheck2.Gen in
  prop ~name:"backoff delays grow, cap, and jitter within bounds"
    ~print:string_of_int (int_bound 10_000) (fun seed ->
      let prng =
        Fault.Prng.split (Fault.Prng.create ~seed) ~label:"backoff"
      in
      let b = BO.create ~config:backoff_test_config ~prng () in
      List.for_all
        (fun k ->
          let d =
            Int64.of_float
              (Float.min
                 (Int64.to_float backoff_test_config.cap)
                 (Int64.to_float backoff_test_config.base
                 *. (2.0 ** float_of_int k)))
          in
          let delay = BO.next b in
          (* delay in [d - floor(jitter * d), d] *)
          Int64.compare delay d <= 0
          && Int64.compare delay
               (Int64.sub d (Int64.of_float (0.5 *. Int64.to_float d)))
             >= 0)
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ])

let test_backoff_determinism () =
  let mk () =
    BO.create ~config:backoff_test_config
      ~prng:(Fault.Prng.split (Fault.Prng.create ~seed:9) ~label:"dst")
      ()
  in
  let a = mk () and b = mk () in
  let seq t = List.init 12 (fun _ -> BO.next t) in
  Alcotest.(check (list int64)) "same seed, same retry timeline" (seq a)
    (seq b);
  Alcotest.(check int) "attempts counted" 12 (BO.attempts a);
  Alcotest.check_raises "jitter must stay below 1"
    (Invalid_argument "Backoff: jitter must be in [0, 1)") (fun () ->
      BO.validate { backoff_test_config with jitter = 1.0 })

(* ---- admission control: shed the expensive class first ---- *)

let src_a = Net.Ipaddr.of_string "10.1.1.5"
let src_b = Net.Ipaddr.of_string "10.1.2.5" (* different /24 *)

let admission_config =
  { AD.max_backlog_setup = 10_000_000L;
    max_backlog_data = 100_000_000L;
    per_source_rate = 1000.0;
    per_source_burst = 1000.0;
    prefix_bits = 24
  }

let test_admission_class_ordering () =
  let t = AD.create ~config:admission_config () in
  let admit = AD.admit t ~now:0L ~src:src_a in
  (* Moderate backlog: setups shed, data still flows. *)
  Alcotest.(check bool) "setup shed at 50 ms backlog" true
    (admit ~backlog:50_000_000L ~klass:AD.Setup () = AD.Shed "backlog");
  Alcotest.(check bool) "data admitted at 50 ms backlog" true
    (admit ~backlog:50_000_000L ~klass:AD.Data () = AD.Admit);
  (* Extreme backlog: data sheds too. *)
  Alcotest.(check bool) "data shed at 150 ms backlog" true
    (admit ~backlog:150_000_000L ~klass:AD.Data () = AD.Shed "backlog");
  (* Transit traffic is never the box's to shed. *)
  Alcotest.(check bool) "other always admitted" true
    (admit ~backlog:500_000_000L ~klass:AD.Other () = AD.Admit);
  Alcotest.(check (list (pair string int))) "sheds tallied by reason"
    [ ("backlog", 2) ]
    (AD.sheds t)

let test_admission_deadline_and_source_rate () =
  let t = AD.create ~config:admission_config () in
  (* Dead on arrival: the 5 ms deadline cannot survive an 8 ms backlog. *)
  Alcotest.(check bool) "expired-in-queue setup shed" true
    (AD.admit t ~now:0L ~backlog:8_000_000L ~klass:AD.Setup ~src:src_a
       ~deadline:5_000_000L ()
    = AD.Shed "deadline");
  (* deadline 0 means none. *)
  Alcotest.(check bool) "no deadline, no deadline shed" true
    (AD.admit t ~now:0L ~backlog:8_000_000L ~klass:AD.Setup ~src:src_a ()
    = AD.Admit);
  (* Per-/24 rate: rate 0 with burst 1 grants exactly one setup per
     prefix, and prefixes are independent. *)
  let t =
    AD.create
      ~config:
        { admission_config with per_source_rate = 0.0; per_source_burst = 1.0 }
      ()
  in
  Alcotest.(check bool) "first setup from /24 admitted" true
    (AD.admit t ~now:0L ~backlog:0L ~klass:AD.Setup ~src:src_a () = AD.Admit);
  Alcotest.(check bool) "second setup from same /24 shed" true
    (AD.admit t ~now:0L ~backlog:0L ~klass:AD.Setup ~src:src_a ()
    = AD.Shed "source-rate");
  Alcotest.(check bool) "other /24 unaffected" true
    (AD.admit t ~now:0L ~backlog:0L ~klass:AD.Setup ~src:src_b () = AD.Admit);
  Alcotest.(check bool) "data never pays the setup bucket" true
    (AD.admit t ~now:0L ~backlog:0L ~klass:AD.Data ~src:src_a () = AD.Admit)

(* ---- multihome: jittered, growing avoidance windows ---- *)

let test_multihome_jittered_growth () =
  let drbg = Crypto.Drbg.create ~seed:"mh-jitter" in
  let a = Net.Ipaddr.of_string "10.9.0.1"
  and b = Net.Ipaddr.of_string "10.9.0.2" in
  let addrs = [ a; b ] in
  (* Preferring [a] makes [choose] return it exactly when its window has
     expired: with [b] live, a failed [a] is skipped. *)
  let mh =
    Core.Multihome.create ~strategy:(Core.Multihome.Prefer a)
      ~rng:(fun n -> Crypto.Drbg.generate drbg n)
      ()
  in
  Core.Multihome.mark_failed mh a ~now:0L;
  Alcotest.(check int) "one strike" 1 (Core.Multihome.strikes mh a);
  (* The first window lies in (15 s, 30 s]: avoided right away, usable
     at 30 s. *)
  Alcotest.(check bool) "avoided immediately after failure" true
    (Core.Multihome.choose mh ~now:30_000_000L addrs <> Some a);
  Alcotest.(check (option bool)) "usable once the full window passed"
    (Some true)
    (Option.map (Net.Ipaddr.equal a)
       (Core.Multihome.choose mh ~now:30_000_000_030L addrs));
  (* Strikes grow the window but never past the 240 s cap. *)
  for _ = 1 to 10 do
    Core.Multihome.mark_failed mh a ~now:60_000_000_000L
  done;
  Alcotest.(check int) "strikes accumulate" 11 (Core.Multihome.strikes mh a);
  Alcotest.(check (option bool)) "window capped" (Some true)
    (Option.map (Net.Ipaddr.equal a)
       (Core.Multihome.choose mh ~now:300_000_000_030L addrs));
  (* A success resets the streak: the next failure starts from the
     30 s window again. *)
  Core.Multihome.note_success mh a;
  Alcotest.(check int) "success clears strikes" 0
    (Core.Multihome.strikes mh a);
  Core.Multihome.mark_failed mh a ~now:600_000_000_000L;
  Alcotest.(check (option bool)) "back to the base window" (Some true)
    (Option.map (Net.Ipaddr.equal a)
       (Core.Multihome.choose mh ~now:630_000_000_030L addrs))

(* ---- E13: the acceptance bar, and byte-identical determinism ---- *)

let check_acceptance (r : Experiments.E13_overload.result) =
  let at mode m =
    List.find
      (fun (row : Experiments.E13_overload.row) ->
        row.mode = mode && row.multiplier = m)
      r.rows
  in
  let on10 = at "on" 10.0 and off10 = at "off" 10.0 in
  Alcotest.(check bool)
    (Printf.sprintf "degradation ON sustains >= 80%% at 10x (got %.1f%%)"
       on10.goodput_pct)
    true (on10.goodput_pct >= 80.0);
  Alcotest.(check bool)
    (Printf.sprintf "vanilla collapses below 50%% at 10x (got %.1f%%)"
       off10.goodput_pct)
    true (off10.goodput_pct < 50.0);
  Alcotest.(check bool) "the box actually shed work" true (on10.box_shed > 0);
  Alcotest.(check int) "the vanilla box never sheds" 0 off10.box_shed

let test_e13_acceptance () =
  let soak = Sys.getenv_opt "OVERLOAD_SOAK" <> None in
  let r =
    if soak then Experiments.E13_overload.run ()
    else Experiments.E13_overload.run ~quick:true ()
  in
  check_acceptance r

let test_e13_deterministic () =
  let run () =
    Experiments.E13_overload.(
      to_rows (run ~seed:424 ~quick:true ~multipliers:[ 10.0 ] ()))
  in
  Alcotest.(check (list (list string)))
    "equal seeds render byte-identical tables" (run ()) (run ());
  let other =
    Experiments.E13_overload.(
      to_rows (run ~seed:425 ~quick:true ~multipliers:[ 10.0 ] ()))
  in
  Alcotest.(check bool) "different seed, different run" true (run () <> other)

let () =
  Alcotest.run "overload"
    [ ( "token-bucket",
        [ Alcotest.test_case "basics" `Quick test_bucket_basics;
          prop_bucket_conservation
        ] );
      ( "breaker",
        [ Alcotest.test_case "cycle" `Quick test_breaker_cycle;
          prop_breaker_transitions
        ] );
      ( "backoff",
        [ Alcotest.test_case "determinism" `Quick test_backoff_determinism;
          prop_backoff_bounds
        ] );
      ( "admission",
        [ Alcotest.test_case "class ordering" `Quick
            test_admission_class_ordering;
          Alcotest.test_case "deadline and source rate" `Quick
            test_admission_deadline_and_source_rate
        ] );
      ( "multihome",
        [ Alcotest.test_case "jittered growth" `Quick
            test_multihome_jittered_growth
        ] );
      ( "e13",
        [ Alcotest.test_case "acceptance" `Quick test_e13_acceptance;
          Alcotest.test_case "determinism" `Quick test_e13_deterministic
        ] )
    ]
