(* Sequential-equivalence harness for the sharded event engine.

   The central claim under test: sharding the engine (and running the
   shards on a domain pool) changes wall-clock time and nothing else.
   Random workloads on random ring topologies must digest identically at
   shard counts 1, 2 and 4; a cross-shard delivery stress must match an
   in-test sequential reference model exactly; and an event posted below
   the safe horizon must raise, never silently reorder. Alongside live
   the satellite regressions: the Pqueue vs a sorted-list model,
   Engine.create argument validation, and E12 chaos determinism with
   live domains present. *)

let prop ?(count = 10) ~name ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

(* Pools are reused across test cases to amortize domain spawn; tests in
   a binary run sequentially, so the single-submitter contract holds. *)
let pool2 = Par.create ~size:2 ()
let pool4 = Par.create ~size:4 ()
let () = at_exit (fun () -> Par.shutdown pool2; Par.shutdown pool4)

(* LCG-based avalanche: every choice the engine workloads and the
   reference model make derives from chains of this. The mask keeps
   results non-negative native ints. *)
let mix x =
  let x = (x * 2685821657736338717) + 1442695040888963407 in
  let x = x lxor (x lsr 29) in
  x * 2685821657736338717 land max_int

(* ---- shard-count invariance on the token-ring workload ---- *)

(* [domains] stub sites around a ring, built as a real Net.Topology:
   one router plus [hosts_per_domain] hosts each, hosts on their router
   (2 us), routers linked to both ring neighbours at latencies that vary
   per edge, so the engine's lookahead auto-tuner (the minimum
   cross-shard latency) meets a non-uniform minimum. Returns the
   topology and the host ids. *)
let ring_topology ~domains ~hosts_per_domain =
  let top = Net.Topology.create () in
  let routers = Array.make domains (-1) in
  let hosts = Array.make_matrix domains hosts_per_domain (-1) in
  for d = 0 to domains - 1 do
    let did =
      Net.Topology.add_domain top
        ~name:(Printf.sprintf "isp%d" d)
        ~prefix:(Printf.sprintf "10.%d.0.0/16" (d + 1))
    in
    let r =
      Net.Topology.add_node top ~domain:did ~kind:Router
        ~name:(Printf.sprintf "r%d" d)
    in
    routers.(d) <- r.Net.Topology.nid;
    for h = 0 to hosts_per_domain - 1 do
      let n =
        Net.Topology.add_node top ~domain:did ~kind:Host
          ~name:(Printf.sprintf "h%d-%d" d h)
      in
      hosts.(d).(h) <- n.Net.Topology.nid;
      Net.Topology.add_link top r.Net.Topology.nid n.Net.Topology.nid
        ~bandwidth_bps:1_000_000_000 ~latency:2_000L ()
    done
  done;
  for d = 0 to domains - 1 do
    Net.Topology.add_link top routers.(d)
      routers.((d + 1) mod domains)
      ~bandwidth_bps:10_000_000_000
      ~latency:(Int64.of_int (200_000 + (20_000 * (d mod 5))))
      ()
  done;
  (top, hosts)

(* Adjacency split by locality: [intra] neighbours share the node's
   domain (and so its shard, under Topology.shard_of); [inter]
   neighbours are cross-domain, each with its link's latency, the lower
   bound a hop along that edge always respects. *)
let adjacency top =
  let n = Net.Topology.node_count top in
  let intra = Array.make n [] and inter = Array.make n [] in
  List.iter
    (fun (e : Net.Topology.edge) ->
      let domain nid = (Net.Topology.node top nid).Net.Topology.domain in
      if domain e.a = domain e.b then begin
        intra.(e.a) <- e.b :: intra.(e.a);
        intra.(e.b) <- e.a :: intra.(e.b)
      end
      else begin
        inter.(e.a) <- (e.b, e.latency) :: inter.(e.a);
        inter.(e.b) <- (e.a, e.latency) :: inter.(e.b)
      end)
    (Net.Topology.edges top);
  ( Array.map (fun l -> Array.of_list (List.rev l)) intra,
    Array.map (fun l -> Array.of_list (List.rev l)) inter )

(* Tokens hop the ring for [hops] arrivals each, on an engine of
   [shards] shards, on [pool] when given. An arrival folds its identity
   into its node's XOR accumulator (commutative, so same-time arrivals
   digest alike in any round interleaving) and derives the next hop
   from the payload alone: cross-domain at the edge's latency plus
   jitter, never below the lookahead; intra-domain at any positive
   delay on the node's own shard. The digest over the per-node
   accumulators and arrival counts is a pure function of the parameters,
   never of [shards] or [pool]. *)
let workload_digest ~domains ~hosts_per_domain ~tokens ~hops ~seed ~shards
    ~pool =
  let top, hosts = ring_topology ~domains ~hosts_per_domain in
  let intra, inter = adjacency top in
  let n = Net.Topology.node_count top in
  let shard_of =
    Array.init n (fun nid -> Net.Topology.shard_of top ~shards nid)
  in
  let acc = Array.make n 0 and cnt = Array.make n 0 in
  let engine =
    Net.Engine.create
      ~obs:(Obs.Registry.create ())
      ~capacity:(max 16 tokens) ~shards ~topo:top ()
  in
  let rec arrive time nid payload ttl =
    acc.(nid) <- acc.(nid) lxor mix (payload lxor (nid * 0x9e3779b9));
    cnt.(nid) <- cnt.(nid) + 1;
    if ttl > 0 then begin
      let r = mix payload in
      let go_inter =
        Array.length inter.(nid) > 0
        && (r land 3 = 0 || Array.length intra.(nid) = 0)
      in
      let next, delay =
        if go_inter then begin
          let dst, lat =
            inter.(nid).(mix (r + 1) mod Array.length inter.(nid))
          in
          (dst, Int64.add lat (Int64.of_int (mix (r + 2) mod 100_000)))
        end
        else
          ( intra.(nid).(mix (r + 3) mod Array.length intra.(nid)),
            Int64.of_int (1 + (mix (r + 4) mod 2_000)) )
      in
      let at = Int64.add time delay in
      ignore
        (Net.Engine.post engine ~shard:shard_of.(next) ~at (fun () ->
             arrive at next (mix (r + 5)) (ttl - 1)))
    end
  in
  for k = 0 to tokens - 1 do
    let nid = hosts.(k mod domains).(k / domains mod hosts_per_domain) in
    let at = Int64.of_int (1 + (mix (seed + k) mod 1_000)) in
    ignore
      (Net.Engine.post engine ~shard:shard_of.(nid) ~at (fun () ->
           arrive at nid (mix (seed lxor (k * 7919))) hops))
  done;
  Net.Engine.run ?pool engine;
  let buf = Buffer.create (n * 24) in
  for nid = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "%d:%d:%x;" nid cnt.(nid) acc.(nid))
  done;
  Crypto.Sha256.digest_hex (Buffer.contents buf)

let test_shard_invariance =
  let gen =
    QCheck2.Gen.(
      let* domains = 2 -- 6 in
      let* hosts_per_domain = 1 -- 4 in
      let* tokens = 4 -- 20 in
      let* hops = 20 -- 100 in
      let+ seed = 0 -- 1_000_000 in
      (domains, hosts_per_domain, tokens, hops, seed))
  in
  prop ~count:12 ~name:"random topology+workload: digests equal at shards 1/2/4"
    ~print:(fun (d, h, t, k, s) ->
      Printf.sprintf "domains=%d hosts=%d tokens=%d hops=%d seed=%d" d h t k s)
    gen
    (fun (domains, hosts_per_domain, tokens, hops, seed) ->
      let digest ~shards ~pool =
        workload_digest ~domains ~hosts_per_domain ~tokens ~hops ~seed ~shards
          ~pool
      in
      let base = digest ~shards:1 ~pool:None in
      List.for_all
        (fun (shards, pool) ->
          (* Both orders of execution: the pooled rounds and the same
             rounds inline on one domain. *)
          digest ~shards ~pool:(Some pool) = base
          && digest ~shards ~pool:None = base)
        [ (2, pool2); (4, pool4) ])

(* ---- cross-shard delivery stress vs a sequential reference model ---- *)

(* A shard-agnostic workload over [cells]: an arrival XORs the mixed
   payload into its cell and, while TTL lasts, derives the next (time,
   cell, payload) hop from its payload alone. Delays are always in
   [l, 2l), so with lookahead [l] every cross-shard hop clears the
   horizon by construction. *)
let stress_next ~cells ~l time payload =
  let r = mix payload in
  let cell = r mod cells in
  let at = Int64.add time (Int64.of_int (l + (mix (r + 1) mod l))) in
  (at, cell, mix (r + 2))

let stress_roots ~cells ~roots ~seed =
  List.init roots (fun k ->
      ( Int64.of_int (1 + (mix (seed + k) mod 1_000)),
        mix (seed + k + roots) mod cells,
        mix ((seed * 31) + k) ))

(* The reference: a plain sorted event list processed one event at a
   time on this thread. Tie order among equal times is irrelevant — the
   accumulators commute — which is exactly why the workload is a valid
   equivalence witness at any shard count. *)
let stress_model ~cells ~roots ~seed ~ttl ~l =
  let acc = Array.make cells 0 in
  let insert ev queue =
    let rec go = function
      | [] -> [ ev ]
      | ((t', _, _, _) as hd) :: tl ->
        let t, _, _, _ = ev in
        if Int64.compare t t' < 0 then ev :: hd :: tl else hd :: go tl
    in
    go queue
  in
  let queue =
    List.fold_left
      (fun q (at, cell, payload) -> insert (at, cell, payload, ttl) q)
      []
      (stress_roots ~cells ~roots ~seed)
  in
  let rec drain = function
    | [] -> ()
    | (time, cell, payload, ttl) :: rest ->
      acc.(cell) <- acc.(cell) lxor mix payload;
      let rest =
        if ttl = 0 then rest
        else
          let at, cell', payload' = stress_next ~cells ~l time payload in
          insert (at, cell', payload', ttl - 1) rest
      in
      drain rest
  in
  drain queue;
  acc

let stress_engine ~cells ~roots ~seed ~ttl ~l ~shards ~pool =
  let acc = Array.make cells 0 in
  let engine =
    Net.Engine.create
      ~obs:(Obs.Registry.create ())
      ~shards ~lookahead:(Int64.of_int l) ()
  in
  let rec arrive time cell payload ttl =
    acc.(cell) <- acc.(cell) lxor mix payload;
    if ttl > 0 then begin
      let at, cell', payload' = stress_next ~cells ~l time payload in
      ignore
        (Net.Engine.post engine ~shard:(cell' mod shards) ~at (fun () ->
             arrive at cell' payload' (ttl - 1)))
    end
  in
  List.iter
    (fun (at, cell, payload) ->
      ignore
        (Net.Engine.post engine ~shard:(cell mod shards) ~at (fun () ->
             arrive at cell payload ttl)))
    (stress_roots ~cells ~roots ~seed);
  Net.Engine.run ?pool engine;
  Alcotest.(check int)
    "all events processed" (Net.Engine.scheduled engine)
    (Net.Engine.processed engine);
  acc

let test_cross_shard_stress =
  let gen =
    QCheck2.Gen.(
      let* cells = 2 -- 6 in
      let* roots = 1 -- 8 in
      let* ttl = 10 -- 60 in
      let* l = 1_000 -- 50_000 in
      let+ seed = 0 -- 1_000_000 in
      (cells, roots, ttl, l, seed))
  in
  prop ~count:20
    ~name:"cross-shard stress: engine matches the sequential model"
    ~print:(fun (c, r, t, l, s) ->
      Printf.sprintf "cells=%d roots=%d ttl=%d lookahead=%d seed=%d" c r t l s)
    gen
    (fun (cells, roots, ttl, l, seed) ->
      let expect = stress_model ~cells ~roots ~seed ~ttl ~l in
      List.for_all
        (fun (shards, pool) ->
          stress_engine ~cells ~roots ~seed ~ttl ~l ~shards ~pool = expect)
        [ (1, None); (2, None); (2, Some pool2); (4, Some pool4) ])

(* ---- published counters ---- *)

(* The engine counts events in per-shard fields and publishes them to
   obs at each barrier and when a run returns, so at every run boundary
   the registry must agree with the engine's own totals: processed,
   scheduled, and the per-shard family summing to processed. *)
let test_published_counters () =
  let cells = 6 and l = 5_000 and ttl = 40 in
  List.iter
    (fun (shards, pool) ->
      let obs = Obs.Registry.create () in
      let engine =
        Net.Engine.create ~obs ~shards ~lookahead:(Int64.of_int l) ()
      in
      let rec arrive time payload ttl =
        if ttl > 0 then begin
          let at, cell', payload' = stress_next ~cells ~l time payload in
          ignore
            (Net.Engine.post engine ~shard:(cell' mod shards) ~at (fun () ->
                 arrive at payload' (ttl - 1)))
        end
      in
      List.iter
        (fun (at, cell, payload) ->
          ignore
            (Net.Engine.post engine ~shard:(cell mod shards) ~at (fun () ->
                 arrive at payload ttl)))
        (stress_roots ~cells ~roots:5 ~seed:3);
      Net.Engine.cancel (Net.Engine.post engine ~shard:0 ~at:7L ignore);
      let check phase =
        let label what = Printf.sprintf "shards=%d pool=%b %s: %s" shards
            (pool <> None) phase what in
        let ctr ?labels name =
          Obs.Counter.value (Obs.Registry.counter obs ?labels name)
        in
        Alcotest.(check int) (label "events_processed")
          (Net.Engine.processed engine) (ctr "net.engine.events_processed");
        Alcotest.(check int) (label "events_scheduled")
          (Net.Engine.scheduled engine) (ctr "net.engine.events_scheduled");
        Alcotest.(check int) (label "events_cancelled") 1
          (ctr "net.engine.events_cancelled");
        if shards > 1 then
          Alcotest.(check int) (label "shard_processed sums to processed")
            (Net.Engine.processed engine)
            (List.fold_left ( + ) 0
               (List.init shards (fun i ->
                    ctr ~labels:[ ("shard", string_of_int i) ]
                      "net.engine.shard_processed")))
      in
      Net.Engine.run ?pool ~until:60_000L engine;
      Alcotest.(check bool) "the partial run left work queued" true
        (Net.Engine.pending engine > 0);
      check "partial run";
      Net.Engine.run ?pool engine;
      Alcotest.(check int) "drained" 0 (Net.Engine.pending engine);
      check "full run")
    [ (1, None); (2, None); (2, Some pool2); (4, None); (4, Some pool4) ]

(* ---- lookahead violation: raise, never reorder ---- *)

let test_lookahead_violation () =
  let attempt pool =
    let engine =
      Net.Engine.create ~obs:(Obs.Registry.create ()) ~shards:2
        ~lookahead:1_000L ()
    in
    (* Shard 0's event at t=100 posts to shard 1 inside the round's
       window [100, 1100): the destination may already be past that
       instant, so the engine must refuse. *)
    ignore
      (Net.Engine.post engine ~shard:0 ~at:100L (fun () ->
           ignore (Net.Engine.post engine ~shard:1 ~at:110L ignore)));
    match Net.Engine.run ?pool engine with
    | () -> Alcotest.fail "expected Lookahead_violation"
    | exception Net.Engine.Lookahead_violation { src; dst; at; horizon } ->
      Alcotest.(check (pair int int)) "src/dst shards" (0, 1) (src, dst);
      Alcotest.(check int64) "offending time" 110L at;
      Alcotest.(check int64) "safe horizon" 1_100L horizon
  in
  attempt None;
  attempt (Some pool2);
  (* At exactly the horizon the post is legal and must be delivered. *)
  let engine =
    Net.Engine.create ~obs:(Obs.Registry.create ()) ~shards:2
      ~lookahead:1_000L ()
  in
  let hit = ref 0L in
  ignore
    (Net.Engine.post engine ~shard:0 ~at:100L (fun () ->
         ignore
           (Net.Engine.post engine ~shard:1 ~at:1_100L (fun () ->
                hit := Net.Engine.shard_now engine ~shard:1))));
  Net.Engine.run engine;
  Alcotest.(check int64) "boundary post delivered at the horizon" 1_100L !hit

(* ---- Pqueue vs a sorted-list model (satellite) ---- *)

type pq_op = Push of int | Pop | Pop_value

(* A case starts the heap from [create ()] or from a capacity hint, and
   draws its times either from 0..9 (ties carry the order) or from a
   wide range (the sifts carry it). Pushes outnumber pops, so a long
   case runs the heap through several capacity doublings. *)
let pq_case_gen =
  QCheck2.Gen.(
    let* capacity = opt (1 -- 20) in
    let* wide = bool in
    let time = if wide then 0 -- 1_000_000_000_000 else 0 -- 9 in
    let+ ops =
      list_size (5 -- 400)
        (frequency
           [ (7, map (fun t -> Push t) time);
             (2, pure Pop);
             (1, pure Pop_value)
           ])
    in
    (capacity, ops))

let test_pqueue_model =
  prop ~count:200 ~name:"pqueue: interleaved ops match sorted-list model"
    ~print:(fun (capacity, ops) ->
      Printf.sprintf "capacity=%s %s"
        (match capacity with None -> "-" | Some c -> string_of_int c)
        (String.concat ";"
           (List.map
              (function
                | Push t -> Printf.sprintf "push %d" t
                | Pop -> "pop"
                | Pop_value -> "pop_value")
              ops)))
    pq_case_gen
    (fun (capacity, ops) ->
      let q =
        match capacity with
        | None -> Net.Pqueue.create ()
        | Some capacity -> Net.Pqueue.create ~capacity ()
      in
      (* Model: entries sorted by (time, seq); pushes append after every
         entry with time <= t, which IS the stable FIFO tie-break. *)
      let model = ref [] in
      let seq = ref 0 in
      let model_push t s =
        let rec go = function
          | [] -> [ (t, s) ]
          | ((t', _) as hd) :: tl -> if t' <= t then hd :: go tl else (t, s) :: hd :: tl
        in
        model := go !model
      in
      let ok = ref true in
      let check_mins () =
        (* min_time and length agree with the model at every step. *)
        let expect_min =
          match !model with [] -> max_int | (t, _) :: _ -> t
        in
        if Net.Pqueue.min_time q <> expect_min then ok := false;
        if Net.Pqueue.length q <> List.length !model then ok := false
      in
      List.iter
        (fun op ->
          (match op with
           | Push t ->
             Net.Pqueue.push q (Int64.of_int t) !seq !seq;
             model_push t !seq;
             incr seq
           | Pop ->
             (match (Net.Pqueue.pop_min q, !model) with
              | None, [] -> ()
              | Some (t', s', v), (t, s) :: rest ->
                model := rest;
                if not (Int64.of_int t = t' && s = s' && v = s) then
                  ok := false
              | _ -> ok := false)
           | Pop_value ->
             (* The engine's pop: min_time, then the value alone. *)
             (match !model with
              | [] ->
                if not (Net.Pqueue.is_empty q) then ok := false
              | (t, s) :: rest ->
                model := rest;
                let t' = Net.Pqueue.min_time q in
                if not (t = t' && Net.Pqueue.pop_value q = s) then
                  ok := false));
          check_mins ())
        ops;
      (* Drain what's left: the full stable order must survive. *)
      let rec drain () =
        match (Net.Pqueue.pop_min q, !model) with
        | None, [] -> ()
        | Some (t', s', v), (t, s) :: rest ->
          if not (Int64.of_int t = t' && s = s' && v = s) then ok := false;
          model := rest;
          drain ()
        | _ -> ok := false
      in
      drain ();
      !ok)

(* ---- Engine.create validation (satellite) ---- *)

let test_create_validation () =
  let check_invalid name f =
    match f () with
    | (_ : Net.Engine.t) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  let obs () = Obs.Registry.create () in
  check_invalid "capacity 0" (fun () ->
      Net.Engine.create ~obs:(obs ()) ~capacity:0 ());
  check_invalid "capacity negative" (fun () ->
      Net.Engine.create ~obs:(obs ()) ~capacity:(-3) ());
  check_invalid "shards 0" (fun () ->
      Net.Engine.create ~obs:(obs ()) ~shards:0 ());
  check_invalid "sharded without lookahead" (fun () ->
      Net.Engine.create ~obs:(obs ()) ~shards:2 ());
  (* Positive capacity and a well-formed sharded config still work. *)
  let e = Net.Engine.create ~obs:(obs ()) ~capacity:64 () in
  Alcotest.(check int) "default is one shard" 1 (Net.Engine.shards e);
  let e2 =
    Net.Engine.create ~obs:(obs ()) ~capacity:64 ~shards:4 ~lookahead:500L ()
  in
  Alcotest.(check int) "four shards" 4 (Net.Engine.shards e2);
  Alcotest.(check int64) "lookahead kept" 500L (Net.Engine.lookahead e2)

(* ---- E12 chaos determinism with live domains (satellite) ---- *)

let e12_digest ~seed =
  let r = Experiments.E12_chaos.run ~seed ~duration_s:3.0 () in
  Crypto.Sha256.digest_hex
    (String.concat "\n"
       (List.map (String.concat "|") (Experiments.E12_chaos.to_rows r)))

let test_e12_domains_equivalence () =
  let seed = 4242 in
  let plain = e12_digest ~seed in
  (* Second run under multicore pressure: pool2's worker woken plus a
     busy domain churning throughout. The fault timeline is a pure
     function of the seed, so the rendered table may not move by a
     byte. *)
  let woken = Array.make 64 0 in
  Par.round pool2 ~n:64 ~f:(fun i -> woken.(i) <- mix i);
  let stop = Atomic.make false in
  let churn =
    Domain.spawn (fun () ->
        let x = ref 1 in
        while not (Atomic.get stop) do
          x := mix !x
        done;
        !x)
  in
  let with_domains =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () -> e12_digest ~seed)
  in
  ignore (Domain.join churn : int);
  Alcotest.(check string)
    "seeded chaos table identical with live domains" plain with_domains

let () =
  Alcotest.run "pdes"
    [ ( "equivalence",
        [ test_shard_invariance;
          test_cross_shard_stress;
          Alcotest.test_case "lookahead violation raises" `Quick
            test_lookahead_violation;
          Alcotest.test_case "published counters match the engine" `Quick
            test_published_counters
        ] );
      ("pqueue", [ test_pqueue_model ]);
      ( "engine",
        [ Alcotest.test_case "create validates arguments" `Quick
            test_create_validation
        ] );
      ( "chaos",
        [ Alcotest.test_case "e12 digest stable under live domains" `Quick
            test_e12_domains_equivalence
        ] )
    ]
