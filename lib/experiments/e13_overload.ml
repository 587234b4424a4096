(* E13: graceful degradation under overload.

   One neutralizer box whose RSA key-setup service is deliberately slow
   (1 ms per op -> 1000 setups/s of capacity) faces an open-loop swarm
   of key-setup requesters sweeping offered load from 0.5x to 10x that
   capacity. Every request carries a deadline in the shim; a reply that
   misses it is wasted work.

   Two conditions per load point:

   - OFF: the vanilla protocol. The box serves FIFO at full cost and
     requesters retransmit immediately on timeout (the legacy client
     behaviour). Past ~1x the service queue outgrows the deadline, every
     reply arrives late, and timeout-driven retransmits triple the
     offered load: congestion collapse — the box runs flat out producing
     nothing anyone is still waiting for.

   - ON: the box runs admission control (backlog-bounded, per-/24
     source buckets, dead-on-arrival deadline checks; excess shed at the
     ingress gate before any queueing) and requesters retry through
     jittered exponential backoff, a retry token budget, and a circuit
     breaker. The box sheds what it cannot serve in time and spends its
     full capacity on requests that still have live deadlines.

   Goodput = key setups whose reply reached the requester within its
   deadline, counted client-side by FIFO matching with expiry. The
   acceptance bar: at 10x load, ON sustains >= 80% of capacity while
   OFF collapses below 50%.

   Everything random — arrival processes, backoff jitter — derives from
   one SplitMix64 root seeded by OVERLOAD_SEED, so two runs with equal
   seeds print byte-identical tables. *)

type row = {
  mode : string;
  multiplier : float;
  offered_pps : int;
  box_served : int;
  box_shed : int;
  goodput : int;
  goodput_pct : float;  (* of capacity over the run *)
  give_ups : int;
  breaker_opens : int;
  p95_latency_ms : float;
}

type result = {
  seed : int;
  chaos : bool;
  duration_s : float;
  capacity_pps : int;
  capacity_ops : int;
  rows : row list;
}

(* ---- fixed protocol-level parameters of the scenario ---- *)

let key_setup_cost = 1_000_000L (* 1 ms -> 1000 setups/s of box capacity *)
let capacity_pps = 1000
let setup_timeout = 25_000_000L (* per-attempt deadline, ns *)
let max_attempts = 3
let n_sources = 10

let backoff_config =
  { Overload.Backoff.base = 10_000_000L;
    cap = 100_000_000L;
    multiplier = 2.0;
    jitter = 0.5
  }

(* The threshold is deliberately lax: under heavy shedding a source sees
   give-up streaks even while the box is healthy, and the breaker should
   open on outages (all requests failing), not on fair-share backpressure. *)
let breaker_config =
  { Overload.Breaker.failure_threshold = 15;
    open_timeout = 100_000_000L;
    half_open_probes = 1
  }

let admission_config =
  { Overload.Admission.max_backlog_setup = 10_000_000L;
    max_backlog_data = 100_000_000L;
    per_source_rate = 150.0;
    per_source_burst = 30.0;
    prefix_bits = 24
  }

(* One key-setup request, living through up to [max_attempts] sends. *)
type req = {
  mutable attempt : int;
  mutable answered : bool;
  mutable abandoned : bool;
  backoff : Overload.Backoff.t option;
}

(* One wire attempt. Key-setup responses carry no request identifier the
   shared-key requesters could read, but the box echoes the request's
   dscp and the per-source path is FIFO end to end (FIFO links, FIFO
   service queue, single route), so replies arrive in the order their
   attempts were admitted. Stamping the per-source attempt counter mod
   64 into dscp lets the receiver pop its attempt FIFO to the first
   matching id: attempts skipped over were shed (or hit a crashed box)
   and will never be answered. *)
type attempt = {
  req : req;
  id : int;
  sent_at : int64;
  deadline : int64;
}

type source = {
  host : Net.Host.t;
  queue : attempt Queue.t;
  mutable next_id : int;
  budget : Overload.Token_bucket.t option;
  breaker : Overload.Breaker.t option;
  mutable goodput : int;
  mutable late_replies : int;  (* late, duplicate, or unmatched *)
  mutable give_ups : int;
  mutable skipped_open : int;
  mutable latencies : int64 list;
}

let quantile_ms q = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort Int64.compare a;
    let n = Array.length a in
    let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
    Int64.to_float a.(max 0 (min (n - 1) i)) /. 1e6

let run_condition ~root ~on ~chaos ~multiplier ~duration_s =
  let engine = Net.Engine.create () in
  let topo = Net.Topology.create () in
  (* Hub domain holding the transit router and the box. *)
  let hub = Net.Topology.add_domain topo ~name:"hub" ~prefix:"10.200.0.0/16" in
  let hub_r =
    Net.Topology.add_node topo ~domain:hub ~kind:Net.Topology.Router
      ~name:"hub-r"
  in
  let box_node =
    Net.Topology.add_node topo ~domain:hub ~kind:Net.Topology.Router
      ~name:"box"
  in
  Net.Topology.add_link topo box_node.nid hub_r.nid
    ~bandwidth_bps:1_000_000_000 ~latency:1_000_000L ();
  let anycast = Net.Ipaddr.of_string "10.200.255.1" in
  Net.Topology.register_anycast topo anycast [ box_node.nid ];
  (* Each requester lives in its own /16, so every source is its own /24
     aggregate to the admission controller and to pushback alike. *)
  let source_nodes =
    List.init n_sources (fun k ->
        let d =
          Net.Topology.add_domain topo
            ~name:(Printf.sprintf "src-%d" k)
            ~prefix:(Printf.sprintf "10.%d.0.0/16" (10 + k))
        in
        let n =
          Net.Topology.add_node topo ~domain:d ~kind:Net.Topology.Host
            ~name:(Printf.sprintf "req-%d" k)
        in
        Net.Topology.add_link topo n.nid hub_r.nid
          ~bandwidth_bps:1_000_000_000 ~latency:1_000_000L ();
        n)
  in
  let net = Net.Network.create engine topo in
  Net.Network.recompute_routes net;
  let master = Core.Master_key.of_seed ~seed:"e13-master" in
  let box_drbg = Crypto.Drbg.create ~seed:"e13-box" in
  let box =
    Core.Neutralizer.attach net box_node
      { (Core.Neutralizer.default_config ~anycast ~master
           ~rng:(fun n -> Crypto.Drbg.generate box_drbg n))
        with
        costs = { Core.Protocol.default_costs with key_setup = key_setup_cost }
      }
  in
  let admission = Overload.Admission.create ~config:admission_config () in
  if on then Core.Neutralizer.enable_admission box admission;
  (* All requesters present the same (valid) one-time public key: the
     box's RSA work is real, the requesters' keygen cost is not what
     this experiment measures. *)
  let pubkey_blob =
    Crypto.Rsa.public_to_string (Scenario.Keyring.onetime 0).Crypto.Rsa.public
  in
  let now () = Net.Engine.now engine in
  let sources =
    List.map
      (fun node ->
        let host = Net.Host.attach net node in
        { host;
          queue = Queue.create ();
          next_id = 0;
          budget =
            (if on then
               Some
                 (Overload.Token_bucket.create
                    { rate = 0.2 *. (multiplier *. float_of_int capacity_pps
                                     /. float_of_int n_sources);
                      burst = 5.0
                    }
                    ~now:(now ()))
             else None);
          breaker =
            (if on then
               Some (Overload.Breaker.create ~config:breaker_config ~now:(now ()) ())
             else None);
          goodput = 0;
          late_replies = 0;
          give_ups = 0;
          skipped_open = 0;
          latencies = []
        })
      source_nodes
  in
  let rec send_attempt src req =
    req.attempt <- req.attempt + 1;
    let id = src.next_id in
    src.next_id <- src.next_id + 1;
    let sent_at = now () in
    let deadline = Int64.add sent_at setup_timeout in
    Queue.push { req; id; sent_at; deadline } src.queue;
    let shim =
      Core.Shim.encode
        (Core.Shim.Key_setup_request { pubkey = pubkey_blob; deadline })
    in
    Net.Host.send src.host
      (Net.Packet.make ~protocol:Net.Packet.Shim ~shim ~dscp:(id mod 64)
         ~src:(Net.Host.addr src.host) ~dst:anycast ~sent_at ~app:"key-setup"
         "");
    ignore
      (Net.Engine.schedule engine ~delay:setup_timeout (fun () ->
           on_timeout src req))
  and on_timeout src req =
    if not req.answered then
      if req.attempt >= max_attempts then give_up src req
      else
        match req.backoff with
        | None -> send_attempt src req (* legacy: immediate retransmit *)
        | Some b ->
          let within_budget =
            match src.budget with
            | None -> true
            | Some bucket -> Overload.Token_bucket.take bucket ~now:(now ())
          in
          if not within_budget then give_up src req
          else
            ignore
              (Net.Engine.schedule engine ~delay:(Overload.Backoff.next b)
                 (fun () -> if not req.answered then send_attempt src req))
  and give_up src req =
    req.abandoned <- true;
    src.give_ups <- src.give_ups + 1;
    match src.breaker with
    | None -> ()
    | Some b -> Overload.Breaker.record_failure b ~now:(now ())
  in
  let on_reply src ~dscp =
    let t = now () in
    (* Pop to the first attempt whose id matches the echoed dscp; the
       skipped heads were shed (or swallowed by a crashed box) and no
       reply for them can still arrive behind this one. *)
    let rec pop () =
      match Queue.take_opt src.queue with
      | None -> src.late_replies <- src.late_replies + 1
      | Some a when a.id mod 64 <> dscp -> pop ()
      | Some a ->
        if a.req.answered then src.late_replies <- src.late_replies + 1
        else if Int64.compare t a.deadline <= 0 then begin
          a.req.answered <- true;
          src.goodput <- src.goodput + 1;
          src.latencies <- Int64.sub t a.sent_at :: src.latencies;
          match src.breaker with
          | None -> ()
          | Some b -> Overload.Breaker.record_success b ~now:t
        end
        else begin
          (* Late but usable: the key did arrive, so stop retrying, but
             it is not goodput — the deadline already passed. *)
          a.req.answered <- true;
          src.late_replies <- src.late_replies + 1
        end
    in
    pop ()
  in
  List.iter
    (fun src ->
      Net.Host.on_shim src.host (fun _host p ->
          match Option.map Core.Shim.decode p.Net.Packet.shim with
          | Some (Some (Core.Shim.Key_setup_response _)) ->
            on_reply src ~dscp:p.Net.Packet.dscp
          | _ -> ()))
    sources;
  let new_request src ~label_k =
    let proceed =
      match src.breaker with
      | None -> true
      | Some b ->
        Overload.Breaker.allow b ~now:(now ())
        ||
        (src.skipped_open <- src.skipped_open + 1;
         false)
    in
    if proceed then begin
      let backoff =
        if on then
          Some
            (Overload.Backoff.create ~config:backoff_config
               ~prng:(Fault.Prng.split root ~label:label_k)
               ())
        else None
      in
      let req =
        { attempt = 0; answered = false; abandoned = false; backoff }
      in
      send_attempt src req
    end
  in
  (* Open-loop Poisson arrivals per source, pre-scheduled from a
     per-source child stream: offered load is multiplier x capacity
     split evenly. *)
  let per_source_rate =
    multiplier *. float_of_int capacity_pps /. float_of_int n_sources
  in
  List.iteri
    (fun k src ->
      let arr =
        Fault.Prng.split root ~label:(Printf.sprintf "arrivals:%d" k)
      in
      let t = ref 0.0 in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        t := !t +. Fault.Prng.exponential arr ~mean:(1.0 /. per_source_rate);
        if !t >= duration_s then continue := false
        else begin
          let label_k = Printf.sprintf "backoff:%d:%d" k !i in
          incr i;
          ignore
            (Net.Engine.schedule_s engine ~delay_s:!t (fun () ->
                 new_request src ~label_k))
        end
      done)
    sources;
  (* Optional chaos composition: the box crashes and restarts mid-run;
     breakers open during the outage and a half-open probe re-closes
     them after recovery. *)
  if chaos then begin
    let inj = Fault.Inject.create ~seed:(Fault.Prng.int root 1_000_000) net in
    Fault.Inject.on_crash inj box_node.nid (fun () ->
        Core.Neutralizer.crash box);
    Fault.Inject.on_restart inj box_node.nid (fun () ->
        Core.Neutralizer.restart box);
    ignore
      (Net.Engine.schedule_s engine ~delay_s:(0.4 *. duration_s) (fun () ->
           Fault.Inject.node_crash inj box_node.nid));
    ignore
      (Net.Engine.schedule_s engine ~delay_s:(0.5 *. duration_s) (fun () ->
           Fault.Inject.node_restart inj box_node.nid))
  end;
  (* Run past the last deadline so in-flight replies can land, but not
     so far that a collapsed FIFO drains its hours-deep queue. *)
  Net.Engine.run engine
    ~until:
      (Int64.add
         (Int64.of_float (duration_s *. 1e9))
         (Int64.mul 4L setup_timeout));
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 sources in
  let breaker_opens =
    List.fold_left
      (fun acc s ->
        match s.breaker with
        | None -> acc
        | Some b ->
          acc
          + List.length
              (List.filter
                 (fun (_, st) -> st = Overload.Breaker.Open)
                 (Overload.Breaker.history b)))
      0 sources
  in
  let capacity_ops = int_of_float (duration_s *. float_of_int capacity_pps) in
  let goodput = sum (fun s -> s.goodput) in
  { mode = (if on then "on" else "off");
    multiplier;
    offered_pps =
      int_of_float (multiplier *. float_of_int capacity_pps);
    box_served = (Core.Neutralizer.counters box).key_setups;
    box_shed = (Core.Neutralizer.counters box).shed;
    goodput;
    goodput_pct = 100.0 *. float_of_int goodput /. float_of_int capacity_ops;
    give_ups = sum (fun s -> s.give_ups);
    breaker_opens;
    p95_latency_ms =
      quantile_ms 0.95 (List.concat_map (fun s -> s.latencies) sources)
  }

let default_multipliers = [ 0.5; 1.0; 2.0; 5.0; 10.0 ]
let quick_multipliers = [ 1.0; 10.0 ]

let run ?seed ?(chaos = false) ?(quick = false) ?multipliers ?duration_s () =
  let seed =
    match seed with
    | Some s -> s
    | None -> Fault.Prng.env_seed "OVERLOAD_SEED" ~default:1
  in
  let duration_s =
    match duration_s with Some d -> d | None -> if quick then 0.6 else 2.0
  in
  let multipliers =
    match multipliers with
    | Some ms -> ms
    | None -> if quick then quick_multipliers else default_multipliers
  in
  let rows =
    List.concat_map
      (fun multiplier ->
        List.map
          (fun on ->
            (* A fresh root per condition keeps every condition's draw
               sequence independent of sweep order. *)
            let root = Fault.Prng.create ~seed in
            run_condition ~root ~on ~chaos ~multiplier ~duration_s)
          [ false; true ])
      multipliers
  in
  { seed;
    chaos;
    duration_s;
    capacity_pps;
    capacity_ops = int_of_float (duration_s *. float_of_int capacity_pps);
    rows
  }

(* Pure function of the result, so equal seeds render byte-identical
   tables. *)
let to_rows r =
  List.map
    (fun row ->
      [ Printf.sprintf "%.1fx" row.multiplier;
        row.mode;
        string_of_int row.offered_pps;
        string_of_int row.box_served;
        string_of_int row.box_shed;
        string_of_int row.goodput;
        Printf.sprintf "%.1f%%" row.goodput_pct;
        string_of_int row.give_ups;
        string_of_int row.breaker_opens;
        Printf.sprintf "%.2fms" row.p95_latency_ms
      ])
    r.rows

let print r =
  Table.print
    ~title:
      (Printf.sprintf
         "E13: overload sweep, box capacity %d setups/s for %.1fs (seed %d%s)"
         r.capacity_pps r.duration_s r.seed
         (if r.chaos then ", chaos on" else ""))
    ~header:
      [ "load"; "degradation"; "offered/s"; "box RSA"; "shed"; "goodput";
        "% capacity"; "give-ups"; "breaker opens"; "p95"
      ]
    (to_rows r);
  Table.print_obs ~title:"E13 obs: shedding + drop accounting"
    ~prefixes:
      [ "core.neutralizer.shed_total"; "core.neutralizer.key_setups";
        "net.network.dropped"
      ]
    ()
