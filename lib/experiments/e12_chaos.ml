(* E12: chaos — kill the neutralizer nearest the client mid-flow.

   The paper's §3.2 statelessness claim has a concrete operational
   payoff: "even if one neutralizer fails, other neutralizers can serve
   a source without interruption, because they compute the same master
   key". This experiment measures that interruption on the Figure-1
   world. Ann keeps a steady request flow to google.example while the
   box her traffic enters Cogent through (neutralizer-1) flaps up and
   down on a seeded schedule; every crash withdraws its anycast
   announcement, routing converges on neutralizer-2, and — because the
   grant is derived from the shared master key — the flow resumes
   without a new key setup. We report how many packets die before the
   flow re-homes and the recovery latency distribution. *)

type result = {
  seed : int;
  crashes : int;
  sent : int;
  delivered : int;
  lost_until_rehome : int;
  key_setups_failed : int;
  faults_injected : int;
  corrupt_injected : int;
  proto_rejected : int;
  recoveries_ns : int64 list; (* chronological *)
}

(* The obs registry is process-global and cumulative, so per-run figures
   are deltas of a prefix sum taken before and after the run. *)
let counter_sum ~prefix reg =
  List.fold_left
    (fun acc (name, _labels, m) ->
      match m with
      | Obs.Registry.Counter c
        when String.starts_with ~prefix name ->
        acc + Obs.Counter.value c
      | _ -> acc)
    0
    (Obs.Registry.metrics reg)

let quantile q = function
  | [] -> 0L
  | l ->
    let a = Array.of_list l in
    Array.sort Int64.compare a;
    let n = Array.length a in
    let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let default_plan =
  { Fault.Plan.entries = [];
    flaps =
      [ { Fault.Plan.flap_node = "neutralizer-1";
          mean_up_s = 2.0;
          mean_down_s = 1.0
        }
      ]
  }

let period_s = 0.02

let run ?seed ?(plan = default_plan) ?(corrupt = 0.0) ?(duration_s = 30.0) () =
  let seed =
    match seed with
    | Some s -> s
    | None -> Fault.Prng.env_seed "FAULT_SEED" ~default:1
  in
  let world = Scenario.World.create () in
  let engine = world.Scenario.World.engine in
  let inj = Fault.Inject.create ~seed world.Scenario.World.net in
  let reg = Net.Engine.obs engine in
  let proto_before = counter_sum ~prefix:"core.proto.reject." reg in
  (* Wire corruption composes with the crash schedule: flipped bits end
     as counted core.proto.reject.* drops at whichever box or host
     decodes the frame, never as crashes or misparses. Guarded so the
     default run's fault timeline (and its pinned golden digest) is
     untouched — installing the hook would consume PRNG draws. *)
  if corrupt > 0.0 then
    Fault.Inject.perturb_all_links inj
      ~profile:{ Fault.Inject.calm with corrupt };
  let sent = ref 0 and delivered = ref 0 in
  let crashes = ref 0 in
  let crash_at = ref None in
  let recoveries = ref [] in
  (* Protocol-level crash semantics ride on the topology fault: the box
     agent powers off (QoS table gone) and back on. The box nearest the
     client additionally drives the recovery clock. *)
  let nearest = List.hd world.Scenario.World.boxes in
  List.iter
    (fun box ->
      let nid = (Core.Neutralizer.node box).Net.Topology.nid in
      Fault.Inject.on_crash inj nid (fun () ->
          Core.Neutralizer.crash box;
          if box == nearest then begin
            incr crashes;
            if !crash_at = None then
              crash_at := Some (Net.Engine.now engine)
          end);
      Fault.Inject.on_restart inj nid (fun () ->
          Core.Neutralizer.restart box))
    world.Scenario.World.boxes;
  let client =
    Scenario.World.make_client world world.Scenario.World.ann_host
      ~seed:"e12" ()
  in
  Core.Client.set_receiver client (fun ~peer:_ _ ->
      incr delivered;
      match !crash_at with
      | None -> ()
      | Some t0 ->
        (* First reply after the crash: the flow has re-homed. *)
        crash_at := None;
        recoveries := Int64.sub (Net.Engine.now engine) t0 :: !recoveries;
        Fault.Inject.record_recovery inj ~since:t0);
  (match Fault.Plan.schedule ~horizon_s:duration_s plan inj with
   | Ok _stop -> ()
   | Error e -> invalid_arg ("E12: bad fault plan: " ^ e));
  let n_sends = int_of_float (duration_s /. period_s) in
  for i = 0 to n_sends - 1 do
    ignore
      (Net.Engine.schedule_s engine
         ~delay_s:(period_s *. float_of_int i)
         (fun () ->
           incr sent;
           Core.Client.send_to_name client ~name:"google.example" ~app:"web"
             ~flow_id:1 ~seq:i
             (Printf.sprintf "req-%d" i)))
  done;
  let corrupt_ctr =
    Obs.Registry.counter reg
      ~labels:[ ("kind", "corrupt") ]
      "fault.injected_total"
  in
  let corrupt_before = Obs.Counter.value corrupt_ctr in
  Scenario.World.run world;
  { seed;
    crashes = !crashes;
    sent = !sent;
    delivered = !delivered;
    (* The engine drains completely, so every reply that was going to
       arrive has: the difference is exactly the packets that died in a
       crash window before the flow re-homed. *)
    lost_until_rehome = !sent - !delivered;
    key_setups_failed = (Core.Client.counters client).key_setups_failed;
    faults_injected = Fault.Inject.injected inj;
    corrupt_injected = Obs.Counter.value corrupt_ctr - corrupt_before;
    proto_rejected =
      counter_sum ~prefix:"core.proto.reject." reg - proto_before;
    recoveries_ns = List.rev !recoveries
  }

let ms ns = Printf.sprintf "%.3f" (Int64.to_float ns /. 1e6)

(* Rows are a pure function of [result] — no wall clock, no global
   registry — so two runs with the same FAULT_SEED render
   byte-identically (the determinism tests compare exactly this). *)
let to_rows r =
  [ [ "FAULT_SEED"; string_of_int r.seed ];
    [ "crashes of nearest box"; string_of_int r.crashes ];
    [ "packets sent"; string_of_int r.sent ];
    [ "replies delivered"; string_of_int r.delivered ];
    [ "lost until re-home"; string_of_int r.lost_until_rehome ];
    [ "key setups failed"; string_of_int r.key_setups_failed ];
    [ "faults injected"; string_of_int r.faults_injected ];
    [ "corrupted frames injected"; string_of_int r.corrupt_injected ];
    [ "proto rejects (typed drops)"; string_of_int r.proto_rejected ];
    [ "recovery p50 (ms)"; ms (quantile 0.50 r.recoveries_ns) ];
    [ "recovery p95 (ms)"; ms (quantile 0.95 r.recoveries_ns) ];
    [ "recovery max (ms)"; ms (quantile 1.0 r.recoveries_ns) ]
  ]

let print r =
  Table.print
    ~title:
      "E12: chaos — nearest neutralizer killed mid-flow, stateless failover \
       (§3.2, §3.5)"
    ~header:[ "metric"; "value" ] (to_rows r);
  Table.print_obs ~title:"E12 obs: injected faults and recovery"
    ~prefixes:[ "fault."; "core.client.rehomes" ]
    ()
