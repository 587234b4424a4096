(* E15 — differential policy fuzzer: thousands of DSL-generated
   discrimination regimes swept against the neutralizer.

   Two tiers, one seed (POLICY_SEED):

   1. Semantic tier: per regime, a generated policy is compiled to a
      classifier table and run against the naive reference interpreter
      over a batch of generated wire observations — verdicts must be
      byte-identical.

   2. End-to-end tier: two long-lived Figure-1 worlds — exposed (plain
      UDP from Ann to vonage:5060 and google:80) and neutralized (the
      same two flows through the anycast neutralizer) — each with a
      Dsl.Control on the AT&T domain. Every window swaps in a fresh
      generated regime mid-traffic (the flip lands while packets are in
      flight, exercising the two-version consistent update) and
      measures per-flow deliveries. The paper's §3.6 invariants are
      asserted per window on the neutralized world:

        A (selectivity collapses): target and bystander deliveries stay
          within tolerance of each other — the ISP cannot single out
          the VoIP flow it is trying to hurt;
        B (no collateral when inert): a regime that never rendered a
          non-forward verdict leaves goodput at the baseline;
        C (verdict collapse): every observation involving the anycast
          address classifies as Key_setup or Encrypted;

      plus zero mixed-epoch verdicts across the whole sweep. The
      exposed world runs the same regimes as a foil: the count of
      windows where it *does* discriminate selectively is the headline
      contrast.

   Every number folded into the digest is an integer, so the golden
   digest pinned in test_experiments is bit-stable across machines. *)

module Prng = Fault.Prng
module Dsl = Discrimination.Dsl
module Dsl_gen = Discrimination.Dsl_gen

type violation = { v_regime : int; v_kind : string; v_detail : string }

type result = {
  seed : int;
  (* semantic tier *)
  regimes : int;
  obs_per_regime : int;
  compiled_mismatches : int;
  max_table_rules : int;
  (* e2e tier *)
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
  violations : violation list;  (* first few, for replay *)
  digest : string;
  seconds : float;
  ok : bool;
}

(* ------------------------------------------------------------------ *)
(* Semantic tier                                                      *)

let semantic_tier buf ~root ~regimes ~obs_per_regime =
  let compiled_mismatches = ref 0 in
  let max_rules = ref 0 in
  let violations = ref [] in
  let note regime kind detail =
    if List.length !violations < 8 then
      violations := { v_regime = regime; v_kind = kind; v_detail = detail } :: !violations
  in
  for i = 0 to regimes - 1 do
    let rng = Prng.split root ~label:(Printf.sprintf "regime-%d" i) in
    let domain = if i mod 5 = 0 then None else Some (i mod 4) in
    let pol = Dsl_gen.gen_policy rng ~domains:[| 0; 1; 2; 3 |] in
    let it = Dsl.interp_create pol in
    let ct = Dsl.compile ?domain pol in
    if Dsl.rule_count ct > !max_rules then max_rules := Dsl.rule_count ct;
    Buffer.add_string buf (Printf.sprintf "s%d:%d:" i (Dsl.rule_count ct));
    let orng = Prng.split rng ~label:"obs" in
    for k = 0 to obs_per_regime - 1 do
      let at = Int64.of_int ((k * 1_000_000) + Prng.int orng 999_983) in
      let o = Dsl_gen.gen_obs orng ~at in
      let vi = Dsl.interpret ?domain it o in
      let vc = Dsl.verdict ct o in
      Buffer.add_string buf (Dsl.verdict_to_string vc);
      Buffer.add_char buf ',';
      if vi <> vc then begin
        incr compiled_mismatches;
        note i "compiled-vs-interp"
          (Printf.sprintf "obs %d: interp=%s compiled=%s policy=%s" k
             (Dsl.verdict_to_string vi) (Dsl.verdict_to_string vc)
             (Format.asprintf "%a" Dsl.pp_policy pol))
      end
    done;
    Buffer.add_char buf '\n'
  done;
  (!compiled_mismatches, !max_rules, List.rev !violations)

(* ------------------------------------------------------------------ *)
(* End-to-end tier                                                    *)

type flow_counts = { mutable target : int; mutable bystander : int }

type window_out = {
  wt : int;  (* target deliveries *)
  wb : int;  (* bystander deliveries *)
  whits : int;  (* non-forward/allow verdicts rendered in the window *)
  wcollapse : int;  (* anycast-involving obs NOT classified Key_setup/Encrypted *)
}

(* Fixed-size unique payload: unique bytes give every packet its own
   epoch-stamp identity, the fixed length keeps the two flows
   wire-indistinguishable once encrypted. *)
let payload ~window ~k =
  let s = Printf.sprintf "w%06d-k%04d" window k in
  s ^ String.make (64 - String.length s) '.'

let window_span = 200_000_000L (* 200 ms *)
let flip_offset = 60_000_000L (* swap lands mid-window, packets in flight *)

type e2e_world = {
  world : Scenario.World.t;
  ctl : Dsl.Control.t;
  counts : flow_counts;
  send : window:int -> k:int -> target:bool -> unit;
}

let neutralized_world () =
  let w = Scenario.World.create () in
  let ctl =
    Dsl.Control.install w.Scenario.World.net ~domains:[ w.Scenario.World.att ]
      Dsl.Nil
  in
  let counts = { target = 0; bystander = 0 } in
  (* A hand-configured client: blackhole re-homing is disabled so a
     fully-dropping regime cannot poison later windows through failure
     marks — the fuzzer wants every window to start from the same
     client state. *)
  let drbg = Crypto.Drbg.create ~seed:"e15-neutral-cfg" in
  let base =
    Core.Client.default_config ~rng:(fun n -> Crypto.Drbg.generate drbg n)
  in
  let config =
    { base with
      Core.Client.dns_server = Some w.Scenario.World.resolver_addr;
      dns_encrypt = Some w.Scenario.World.resolver_key.Crypto.Rsa.public;
      dns_verify = Some w.Scenario.World.resolver_key.Crypto.Rsa.public;
      onetime_keygen = Scenario.Keyring.onetime_pool ();
      blackhole_threshold = max_int
    }
  in
  let client =
    Core.Client.create w.Scenario.World.ann_host ~config ~seed:"e15-neutral" ()
  in
  let vonage = (Scenario.World.site w "vonage").Scenario.World.node in
  let google = (Scenario.World.site w "google").Scenario.World.node in
  Core.Client.set_receiver client (fun ~peer _msg ->
      if Net.Ipaddr.equal peer vonage.Net.Topology.addr then
        counts.target <- counts.target + 1
      else if Net.Ipaddr.equal peer google.Net.Topology.addr then
        counts.bystander <- counts.bystander + 1);
  let send ~window ~k ~target =
    let name = if target then "vonage.example" else "google.example" in
    Core.Client.send_to_name client ~name
      ~app:(if target then "voip" else "web")
      ~flow_id:(if target then 1 else 2)
      ~seq:k
      (payload ~window ~k)
  in
  { world = w; ctl; counts; send }

let exposed_world () =
  let w = Scenario.World.create () in
  let ctl =
    Dsl.Control.install w.Scenario.World.net ~domains:[ w.Scenario.World.att ]
      Dsl.Nil
  in
  let counts = { target = 0; bystander = 0 } in
  let vonage = Scenario.World.site w "vonage" in
  let google = Scenario.World.site w "google" in
  let ann_addr = w.Scenario.World.ann.Net.Topology.addr in
  Net.Host.on_deliver vonage.Scenario.World.host (fun p ->
      if Net.Ipaddr.equal p.Net.Packet.src ann_addr && p.Net.Packet.dst_port = 5060
      then counts.target <- counts.target + 1);
  Net.Host.on_deliver google.Scenario.World.host (fun p ->
      if Net.Ipaddr.equal p.Net.Packet.src ann_addr && p.Net.Packet.dst_port = 80
      then counts.bystander <- counts.bystander + 1);
  (* Swallow the probes so they don't count as unhandled. *)
  Net.Host.listen vonage.Scenario.World.host ~port:5060 (fun _ _ -> ());
  Net.Host.listen google.Scenario.World.host ~port:80 (fun _ _ -> ());
  let send ~window ~k ~target =
    let site = if target then vonage else google in
    Net.Host.send_udp w.Scenario.World.ann_host
      ~dst:site.Scenario.World.node.Net.Topology.addr
      ~dst_port:(if target then 5060 else 80)
      ~app:(if target then "voip" else "web")
      ~flow_id:(if target then 1 else 2)
      ~seq:k
      (payload ~window ~k)
  in
  { world = w; ctl; counts; send }

(* One traffic window: optionally swap in [pol] mid-window, spread
   [packets] sends (alternating target/bystander) across the window,
   drain to quiescence, return per-flow delivery deltas and the §3.6
   collapse count from the access-ISP trace. *)
let run_window ew ~window ~packets pol =
  let w = ew.world in
  let engine = w.Scenario.World.engine in
  let t0 = Net.Engine.now engine in
  (match pol with
   | Some p -> Dsl.Control.swap ew.ctl ~at:(Int64.add t0 flip_offset) p
   | None -> ());
  Net.Trace.clear w.Scenario.World.att_trace;
  let t0_target = ew.counts.target and t0_bystander = ew.counts.bystander in
  let hits0 = Dsl.Control.hits ew.ctl in
  let spacing = Int64.div 180_000_000L (Int64.of_int (max 1 packets)) in
  for k = 0 to packets - 1 do
    ignore
      (Net.Engine.schedule engine
         ~delay:(Int64.add 10_000_000L (Int64.mul (Int64.of_int k) spacing))
         (fun () -> ew.send ~window ~k ~target:(k mod 2 = 0)))
  done;
  (* Park the clock at the window end so an all-dropped window still
     advances past the flip (swap preconditions for the next window). *)
  ignore
    (Net.Engine.schedule engine ~delay:window_span (fun () -> ()));
  Scenario.World.run w;
  let anycast = w.Scenario.World.anycast in
  let wcollapse =
    Net.Trace.count w.Scenario.World.att_trace (fun o ->
        (Net.Ipaddr.equal o.Net.Observation.src anycast
        || Net.Ipaddr.equal o.Net.Observation.dst anycast)
        &&
        match Discrimination.Classifier.classify o with
        | Discrimination.Classifier.Key_setup | Discrimination.Classifier.Encrypted
          -> false
        | _ -> true)
  in
  { wt = ew.counts.target - t0_target;
    wb = ew.counts.bystander - t0_bystander;
    whits = Dsl.Control.hits ew.ctl - hits0;
    wcollapse
  }

let e2e_tier buf ~root ~windows ~packets =
  let neutral = neutralized_world () in
  let exposed = exposed_world () in
  let att = neutral.world.Scenario.World.att in
  let cogent = neutral.world.Scenario.World.cogent in
  let tol n = max 3 (n / 4) in
  let per_flow = packets / 2 in
  (* Window 0: warmup under Nil — DNS bootstrap, key setup, refresh. *)
  ignore (run_window neutral ~window:0 ~packets None);
  ignore (run_window exposed ~window:0 ~packets None);
  (* Window 1: the undiscriminated baseline. *)
  let base_n = run_window neutral ~window:1 ~packets None in
  let base_x = run_window exposed ~window:1 ~packets None in
  let active = ref 0 and inert = ref 0 in
  let neutral_selective = ref 0
  and goodput_violations = ref 0
  and collapse_violations = ref 0
  and exposed_selective = ref 0 in
  let violations = ref [] in
  let note regime kind detail =
    if List.length !violations < 8 then
      violations :=
        { v_regime = regime; v_kind = kind; v_detail = detail } :: !violations
  in
  for i = 0 to windows - 1 do
    let rng = Prng.split root ~label:(Printf.sprintf "e2e-%d" i) in
    let pol = Dsl_gen.gen_policy rng ~domains:[| att; cogent |] in
    let window = i + 2 in
    let n = run_window neutral ~window ~packets (Some pol) in
    let x = run_window exposed ~window ~packets (Some pol) in
    if n.whits > 0 then incr active else incr inert;
    if abs (n.wt - n.wb) > tol per_flow then begin
      incr neutral_selective;
      note i "selectivity"
        (Printf.sprintf
           "neutralized world: target %d vs bystander %d (tolerance %d): %s"
           n.wt n.wb (tol per_flow)
           (Format.asprintf "%a" Dsl.pp_policy pol))
    end;
    if n.whits = 0 && (n.wt < base_n.wt - 1 || n.wb < base_n.wb - 1) then begin
      incr goodput_violations;
      note i "goodput"
        (Printf.sprintf
           "inert regime degraded goodput: target %d/%d bystander %d/%d" n.wt
           base_n.wt n.wb base_n.wb)
    end;
    if n.wcollapse > 0 then begin
      incr collapse_violations;
      note i "collapse"
        (Printf.sprintf
           "%d anycast observations classified outside Key_setup/Encrypted"
           n.wcollapse)
    end;
    if abs (x.wt - x.wb) > tol per_flow then incr exposed_selective;
    Buffer.add_string buf
      (Printf.sprintf "e%d:n=%d/%d,h=%d,c=%d,x=%d/%d\n" i n.wt n.wb n.whits
         n.wcollapse x.wt x.wb)
  done;
  let mixed =
    Dsl.Control.mixed_epoch_verdicts neutral.ctl
    + Dsl.Control.mixed_epoch_verdicts exposed.ctl
  in
  ( base_n,
    base_x,
    !active,
    !inert,
    !exposed_selective,
    !neutral_selective,
    !goodput_violations,
    !collapse_violations,
    mixed,
    Dsl.Control.epoch neutral.ctl,
    Dsl.Control.stamped neutral.ctl,
    List.rev !violations )

(* ------------------------------------------------------------------ *)

let run ?(seed = 2006) ?(regimes = 1200) ?(obs_per_regime = 48)
    ?(e2e_windows = 160) ?(packets_per_window = 24) () =
  let t0 = Unix.gettimeofday () in
  let buf = Buffer.create (1 lsl 20) in
  let root = Prng.create ~seed in
  let compiled_mismatches, max_rules, sem_violations =
    semantic_tier buf
      ~root:(Prng.split root ~label:"semantic")
      ~regimes ~obs_per_regime
  in
  let ( base_n,
        base_x,
        active,
        inert,
        exposed_selective,
        neutral_selective,
        goodput_violations,
        collapse_violations,
        mixed,
        epochs,
        stamped,
        e2e_violations ) =
    e2e_tier buf
      ~root:(Prng.split root ~label:"e2e")
      ~windows:e2e_windows ~packets:packets_per_window
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let violations = sem_violations @ e2e_violations in
  { seed;
    regimes;
    obs_per_regime;
    compiled_mismatches;
    max_table_rules = max_rules;
    e2e_windows;
    packets_per_window;
    baseline_target = base_n.wt;
    baseline_bystander = base_n.wb;
    baseline_x_target = base_x.wt;
    baseline_x_bystander = base_x.wb;
    active_windows = active;
    inert_windows = inert;
    exposed_selective;
    neutral_selective;
    goodput_violations;
    collapse_violations;
    mixed_epochs = mixed;
    epochs;
    stamped;
    violations;
    digest = Crypto.Sha256.digest_hex (Buffer.contents buf);
    seconds;
    ok =
      compiled_mismatches = 0 && neutral_selective = 0
      && goodput_violations = 0 && collapse_violations = 0 && mixed = 0
  }

let print r =
  Table.print
    ~title:
      (Printf.sprintf
         "e15: differential policy fuzz, semantic tier (%d regimes, seed %d)"
         r.regimes r.seed)
    ~header:[ "check"; "value" ]
    [ [ "regimes x observations";
        Printf.sprintf "%d x %d" r.regimes r.obs_per_regime
      ];
      [ "compiled vs interpreter mismatches";
        string_of_int r.compiled_mismatches
      ];
      [ "largest compiled table"; Printf.sprintf "%d rules" r.max_table_rules ]
    ];
  Table.print
    ~title:
      (Printf.sprintf
         "e15: paired-world sweep (%d regimes, %d pkts/window, flip at +%Ld \
          ms)"
         r.e2e_windows r.packets_per_window
         (Int64.div flip_offset 1_000_000L))
    ~header:[ "metric"; "neutralized"; "exposed" ]
    [ [ "baseline target/bystander";
        Printf.sprintf "%d/%d" r.baseline_target r.baseline_bystander;
        Printf.sprintf "%d/%d" r.baseline_x_target r.baseline_x_bystander
      ];
      [ "windows with active policy"; string_of_int r.active_windows; "-" ];
      [ "selectively discriminating windows";
        Printf.sprintf "%d %s" r.neutral_selective
          (if r.neutral_selective = 0 then "(collapsed, ok)" else "FAIL");
        string_of_int r.exposed_selective
      ];
      [ "inert-regime goodput violations";
        string_of_int r.goodput_violations;
        "-"
      ];
      [ "classifier-collapse violations";
        string_of_int r.collapse_violations;
        "-"
      ];
      [ "mixed-epoch verdicts"; string_of_int r.mixed_epochs; "-" ];
      [ "policy epochs deployed"; string_of_int r.epochs; "-" ]
    ];
  List.iter
    (fun v ->
      Printf.printf "  VIOLATION regime %d [%s]: %s\n" v.v_regime v.v_kind
        v.v_detail)
    r.violations;
  Table.print ~title:"e15: sweep summary" ~header:[ "metric"; "value" ]
    [ [ "digest"; r.digest ];
      [ "wall clock"; Printf.sprintf "%.2f s" r.seconds ];
      [ "all invariants"; (if r.ok then "ok" else "FAIL") ]
    ]

let to_json r =
  Printf.sprintf
    "{\"bench\": \"dsl\", \"seed\": %d, \"semantic\": {\"regimes\": %d, \
     \"obs_per_regime\": %d, \"compiled_mismatches\": %d, \
     \"max_table_rules\": %d}, \"e2e\": {\"windows\": %d, \
     \"packets_per_window\": %d, \"baseline_target\": %d, \
     \"baseline_bystander\": %d, \"baseline_exposed_target\": %d, \
     \"baseline_exposed_bystander\": %d, \"active_windows\": %d, \
     \"inert_windows\": %d, \"exposed_selective_windows\": %d, \
     \"neutralized_selective_windows\": %d, \"goodput_violations\": %d, \
     \"collapse_violations\": %d, \"mixed_epoch_verdicts\": %d, \"epochs\": \
     %d, \"stamped_keys\": %d}, \"digest\": \"%s\", \"wall_s\": %.3f, \
     \"ok\": %b, \"note\": \"semantic tier: DSL-compiled classifier tables \
     must render verdicts byte-identical to the reference interpreter; \
     e2e tier: generated regimes swapped epoch-consistently mid-window \
     against paired exposed/neutralized Figure-1 worlds must not \
     discriminate selectively, degrade inert-window goodput, leak \
     classifiable verdicts, or mix epochs\"}"
    r.seed r.regimes r.obs_per_regime
    r.compiled_mismatches r.max_table_rules r.e2e_windows
    r.packets_per_window r.baseline_target r.baseline_bystander
    r.baseline_x_target r.baseline_x_bystander r.active_windows
    r.inert_windows r.exposed_selective r.neutral_selective
    r.goodput_violations r.collapse_violations r.mixed_epochs r.epochs
    r.stamped r.digest r.seconds r.ok
