(* Capstone for the sharded event engine: a synthetic token workload on
   a real Net.Topology, swept over shard counts. Every shard count must
   produce the same final digest — shard count 1 is the sequential
   engine, and each sharded point is also re-run without a pool (the
   single-domain round schedule) so a divergence can be attributed to
   parallel execution vs the round structure itself.

   The workload is built so its event set is a pure function of the
   seed: every hop decision derives from the moving token's own payload
   (never from node state), and per-node state is accumulated with XOR —
   commutative, so logically-concurrent same-time arrivals at one node
   digest identically no matter which round interleaving delivered
   them. *)

type workload = {
  digest : string;
  events : int;
  seconds : float;
  rounds : int;  (* barrier rounds the run needed (0 sequential) *)
  lookahead : int64;  (* what the engine's auto-tuner settled on *)
}

type point = {
  shards : int;
  pool : int;  (* domains the pooled run used *)
  events_per_s : float;
  rounds : int;
  events_per_round : float;  (* barrier amortization: higher is cheaper *)
  us_per_round : float;  (* wall-clock per round, barrier included *)
  lookahead_ns : int64;
  digest : string;
  seq_digest : string; (* same shards, no pool: the round reference *)
}

type result = {
  domains : int;
  hosts_per_domain : int;
  tokens : int;
  hops : int;
  lookahead_ns : int64;
  total_events : int;
  points : point list;
  equivalent : bool;
  best_speedup : float;
}

(* LCG-based avalanche (same generator family as the perf harness); the
   mask keeps results non-negative native ints. *)
let mix x =
  let x = (x * 2685821657736338717) + 1442695040888963407 in
  let x = x lxor (x lsr 29) in
  x * 2685821657736338717 land max_int

let intra_latency = 2_000L (* 2 us host <-> router *)

let inter_latency i =
  (* Ring latencies vary per edge so the lookahead bound is exercised
     against a non-uniform minimum. *)
  Int64.of_int (200_000 + (20_000 * (i mod 5)))

(* [domains] stub sites around a ring: one router plus [hosts] hosts
   each; hosts attach to their router, routers link to both ring
   neighbors. Returns the topology plus the router/host node ids. *)
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
        ~bandwidth_bps:1_000_000_000 ~latency:intra_latency ()
    done
  done;
  for d = 0 to domains - 1 do
    Net.Topology.add_link top routers.(d)
      routers.((d + 1) mod domains)
      ~bandwidth_bps:10_000_000_000 ~latency:(inter_latency d)
      ~rel:Peer ()
  done;
  (top, routers, hosts)

(* Adjacency split by locality: [intra] neighbors share the node's
   domain (and therefore its shard, under Topology.shard_of); [inter]
   neighbors are cross-domain, each with the connecting link's latency —
   the lower bound a hop along that edge always respects. *)
let adjacency top =
  let n = Net.Topology.node_count top in
  let intra = Array.make n [] and inter = Array.make n [] in
  List.iter
    (fun e ->
      let open Net.Topology in
      let da = (Net.Topology.node top e.a).domain
      and db = (Net.Topology.node top e.b).domain in
      if da = db then begin
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

let run_workload ?(domains = 8) ?(hosts_per_domain = 6) ?(tokens = 64)
    ?(hops = 400) ?(seed = 1) ~shards ~pool () =
  let top, _routers, hosts = ring_topology ~domains ~hosts_per_domain in
  let intra, inter = adjacency top in
  let n = Net.Topology.node_count top in
  let shard_of = Array.init n (fun nid -> Net.Topology.shard_of top ~shards nid) in
  let acc = Array.make n 0 and cnt = Array.make n 0 in
  (* No explicit lookahead: the engine's auto-tuner reads the largest
     safe window off the topology (min cross-shard link latency). *)
  let engine =
    Net.Engine.create
      ~obs:(Obs.Registry.create ())
      ~capacity:(max 16 tokens) ~shards ~topo:top ()
  in
  (* One token arrival: fold the event's identity into its node's
     commutative accumulator, then derive the next hop from the payload
     alone. Cross-domain hops travel at the chosen edge's latency plus
     jitter — never below the lookahead — and intra-domain hops stay on
     the node's own shard, where any positive delay is legal. *)
  let rec arrive time nid payload ttl =
    acc.(nid) <- acc.(nid) lxor mix (payload lxor (nid * 0x9e3779b9));
    cnt.(nid) <- cnt.(nid) + 1;
    if ttl > 0 then begin
      let r = mix payload in
      let go_inter = Array.length inter.(nid) > 0 && (r land 3 = 0 || Array.length intra.(nid) = 0) in
      let next, delay =
        if go_inter then begin
          let dst, lat = inter.(nid).(mix (r + 1) mod Array.length inter.(nid)) in
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
    let d = k mod domains in
    let nid = hosts.(d).(k / domains mod hosts_per_domain) in
    let at = Int64.of_int (1 + (mix (seed + k) mod 1_000)) in
    ignore
      (Net.Engine.post engine ~shard:shard_of.(nid) ~at (fun () ->
           arrive at nid (mix (seed lxor (k * 7919))) hops))
  done;
  let t0 = Unix.gettimeofday () in
  Net.Engine.run ?pool engine;
  let seconds = Unix.gettimeofday () -. t0 in
  let buf = Buffer.create (n * 24) in
  for nid = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "%d:%d:%x;" nid cnt.(nid) acc.(nid))
  done;
  { digest = Crypto.Sha256.digest_hex (Buffer.contents buf);
    events = Net.Engine.processed engine;
    seconds;
    rounds = Net.Engine.rounds engine;
    lookahead = Net.Engine.lookahead engine
  }

let run ?(shard_counts = [ 1; 2; 4 ]) ?(domains = 8) ?(hosts_per_domain = 6)
    ?(tokens = 128) ?(hops = 600) ?(seed = 1) () =
  let wl shards pool =
    run_workload ~domains ~hosts_per_domain ~tokens ~hops ~seed ~shards ~pool ()
  in
  let points =
    List.map
      (fun shards ->
        (* One domain per shard, but never more domains than the host
           runs at once: an oversubscribed pool measures the scheduler,
           not the engine. *)
        let pool = min shards (Par.recommended ()) in
        let par = Par.with_pool ~size:pool (fun p -> wl shards (Some p)) in
        let seq = wl shards None in
        { shards;
          pool;
          events_per_s = float_of_int par.events /. par.seconds;
          rounds = par.rounds;
          events_per_round =
            (if par.rounds = 0 then float_of_int par.events
             else float_of_int par.events /. float_of_int par.rounds);
          us_per_round =
            (if par.rounds = 0 then 0.0
             else par.seconds *. 1e6 /. float_of_int par.rounds);
          lookahead_ns = par.lookahead;
          digest = par.digest;
          seq_digest = seq.digest
        })
      shard_counts
  in
  let base = List.hd points in
  { domains;
    hosts_per_domain;
    tokens;
    hops;
    lookahead_ns =
      (* the auto-tuned window of the widest sharded point (0 when the
         sweep never sharded) *)
      List.fold_left (fun a (p : point) -> max a p.lookahead_ns) 0L points;
    total_events = tokens * (hops + 1);
    points;
    equivalent =
      List.for_all
        (fun p -> p.digest = base.digest && p.seq_digest = base.digest)
        points;
    best_speedup =
      List.fold_left
        (fun a p -> max a (p.events_per_s /. base.events_per_s))
        1.0 points
  }

let print r =
  Table.print
    ~title:
      (Printf.sprintf
         "pdes: sharded engine scaling (%d domains x %d hosts, %d tokens x \
          %d hops, auto-tuned lookahead %Ld ns)"
         r.domains r.hosts_per_domain r.tokens r.hops r.lookahead_ns)
    ~header:
      [ "shards"; "pool"; "events/s"; "x"; "rounds"; "ev/round"; "us/round";
        "digest ok" ]
    (let base = List.hd r.points in
     List.map
       (fun p ->
         [ string_of_int p.shards;
           string_of_int p.pool;
           Table.kops p.events_per_s;
           Table.f2 (p.events_per_s /. base.events_per_s);
           string_of_int p.rounds;
           Printf.sprintf "%.0f" p.events_per_round;
           Table.f2 p.us_per_round;
           (if p.digest = base.digest && p.seq_digest = base.digest then "yes"
            else "NO")
         ])
       r.points);
  Table.print ~title:"pdes: sequential equivalence"
    ~header:[ "claim"; "value" ]
    [ [ "digests identical across shard counts";
        (if r.equivalent then "yes" else "NO")
      ];
      [ "reference digest (shards=1)";
        String.sub (List.hd r.points).digest 0 16 ^ "..."
      ];
      [ "best speedup vs shards=1"; Table.f2 r.best_speedup ^ "x" ]
    ]

let to_json r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"bench\": \"pdes\", \"domains\": %d, \"hosts_per_domain\": %d, \
        \"tokens\": %d, \"hops\": %d, \"lookahead_ns\": %Ld, \
        \"total_events\": %d, \"points\": ["
       r.domains r.hosts_per_domain r.tokens r.hops r.lookahead_ns
       r.total_events);
  let base = List.hd r.points in
  List.iteri
    (fun i p ->
      Buffer.add_string buf
        (Printf.sprintf
           "%s{\"shards\": %d, \"pool\": %d, \"events_per_s\": %.1f, \
            \"speedup\": %.3f, \"rounds\": %d, \"events_per_round\": %.1f, \"us_per_round\": \
            %.2f, \"lookahead_ns\": %Ld, \"digest\": \"%s\", \"seq_digest\": \
            \"%s\"}"
           (if i = 0 then "" else ", ")
           p.shards p.pool p.events_per_s
           (p.events_per_s /. base.events_per_s)
           p.rounds p.events_per_round p.us_per_round p.lookahead_ns p.digest
           p.seq_digest))
    r.points;
  Buffer.add_string buf
    (Printf.sprintf
       "], \"sequential_equivalence\": %b, \"best_speedup\": %.3f, \
        \"note\": \"digests are SHA-256 over per-node XOR accumulators and \
        arrival counts; every shard count (and each count's no-pool round \
        reference) must match shards=1 exactly; lookahead comes from the \
        engine auto-tuner (Topology.cross_shard_lookahead), and rounds / \
        events-per-round profile the conservative round barrier\"}"
       r.equivalent r.best_speedup);
  Buffer.contents buf
