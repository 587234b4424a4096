(* Seeded generation of Internet-like AS topologies: a preferential-
   attachment (power-law) domain graph with customer/provider edges, a
   settlement-free peering mesh layered on top, and neutralizer boxes in
   the highest-degree (transit-core) domains. Replaces the hand-built
   graphs in Topology for anything that needs hundreds of domains.

   Everything is a pure function of the seed: the generator walks its
   own SplitMix64 stream and touches only ordered Topology state (never
   hashtable iteration order), so the same seed yields the same
   topology byte for byte — property-tested in test/test_scale.ml. *)

type t = {
  topo : Topology.t;
  routers : Topology.node_id array; (* gateway router of domain d *)
  boxes : (Topology.domain_id * Topology.node_id) list;
      (* box domains, descending degree *)
  anycast : Ipaddr.t;
  degrees : int array; (* inter-domain degree of domain d *)
  seed : int;
}

(* SplitMix64, reduced to non-negative native ints. Local rather than
   lib/fault's Prng: fault depends on net, so net grows its own copy of
   the same well-known mixer. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

type rng = { mutable state : int64 }

let rng_create seed = { state = Int64.of_int seed }

let rng_next r =
  r.state <- Int64.add r.state 0x9e3779b97f4a7c15L;
  Int64.to_int (mix64 r.state) land max_int

let rng_below r n = if n <= 1 then 0 else rng_next r mod n

let ms n = Int64.mul (Int64.of_int n) 1_000_000L
let us n = Int64.mul (Int64.of_int n) 1_000L

(* Inter-domain link capacity scales with the provider's current
   degree: a well-attached transit core carries more than a stub uplink. *)
let tier_bandwidth degree =
  if degree >= 16 then 40_000_000_000
  else if degree >= 6 then 10_000_000_000
  else 2_500_000_000

let intra_bandwidth = 20_000_000_000

let generate ?(attach = 2) ?(box_domains = 4) ~domains ~seed () =
  if domains < 2 then invalid_arg "Topogen.generate: need at least 2 domains";
  if attach < 1 then invalid_arg "Topogen.generate: attach must be >= 1";
  if box_domains < 1 || box_domains > domains then
    invalid_arg "Topogen.generate: box_domains out of range";
  let rng = rng_create seed in
  let topo = Topology.create () in
  let routers = Array.make domains (-1) in
  for d = 0 to domains - 1 do
    let did =
      Topology.add_domain topo
        ~name:(Printf.sprintf "as%d" d)
        ~prefix:(Printf.sprintf "10.%d.%d.0/24" (1 + (d / 200)) (d mod 200))
    in
    assert (did = d);
    let r =
      Topology.add_node topo ~domain:did ~kind:Router
        ~name:(Printf.sprintf "r%d" d)
    in
    routers.(d) <- r.Topology.nid
  done;
  let degrees = Array.make domains 0 in
  let linked = Hashtbl.create (domains * 4) in
  let connect a b ~bandwidth ~latency ~rel =
    Hashtbl.replace linked (min a b, max a b) ();
    degrees.(a) <- degrees.(a) + 1;
    degrees.(b) <- degrees.(b) + 1;
    Topology.add_link topo routers.(a) routers.(b) ~bandwidth_bps:bandwidth
      ~latency ~rel ()
  in
  (* Fully meshed transit core of [attach + 1] seed domains. *)
  let core = min domains (attach + 1) in
  for a = 0 to core - 1 do
    for b = a + 1 to core - 1 do
      connect a b ~bandwidth:40_000_000_000 ~latency:(ms (2 + rng_below rng 6))
        ~rel:Topology.Peer
    done
  done;
  (* Preferential attachment: every later domain buys transit from
     [attach] distinct providers, each drawn with probability
     proportional to (degree + 1). The provider end of the edge is [a],
     so rel = Customer reads "d is a customer of p". *)
  for d = core to domains - 1 do
    let picked = Array.make d false in
    let picks = min attach d in
    for _ = 1 to picks do
      let total = ref 0 in
      for p = 0 to d - 1 do
        if not picked.(p) then total := !total + degrees.(p) + 1
      done;
      let r = ref (rng_below rng !total) in
      let chosen = ref (-1) in
      (try
         for p = 0 to d - 1 do
           if not picked.(p) then begin
             r := !r - (degrees.(p) + 1);
             if !r < 0 then begin
               chosen := p;
               raise Exit
             end
           end
         done
       with Exit -> ());
      let p = if !chosen >= 0 then !chosen else 0 in
      picked.(p) <- true;
      connect p d
        ~bandwidth:(tier_bandwidth degrees.(p))
        ~latency:(ms (2 + rng_below rng 28))
        ~rel:Topology.Customer
    done
  done;
  (* Settlement-free peering mesh on top of the customer tree. *)
  let peers = int_of_float (Float.round (0.15 *. float_of_int domains)) in
  let attempts = ref (peers * 8) in
  let added = ref 0 in
  while !added < peers && !attempts > 0 do
    decr attempts;
    let a = rng_below rng domains and b = rng_below rng domains in
    if a <> b && not (Hashtbl.mem linked (min a b, max a b)) then begin
      connect a b ~bandwidth:10_000_000_000
        ~latency:(ms (1 + rng_below rng 10))
        ~rel:Topology.Peer;
      incr added
    end
  done;
  (* Neutralizer boxes in the [box_domains] best-connected domains
     (descending degree, ascending id as the tie-break), all announcing
     one anycast service address. *)
  let order = Array.init domains (fun d -> d) in
  Array.sort
    (fun a b ->
      match compare degrees.(b) degrees.(a) with 0 -> compare a b | c -> c)
    order;
  let boxes =
    List.init box_domains (fun i ->
        let d = order.(i) in
        let n =
          Topology.add_node topo ~domain:d ~kind:Neutralizer_box
            ~name:(Printf.sprintf "nbox%d" d)
        in
        Topology.add_link topo routers.(d) n.Topology.nid
          ~bandwidth_bps:intra_bandwidth ~latency:(us 200) ();
        (d, n.Topology.nid))
  in
  let anycast = Ipaddr.of_string "10.254.0.1" in
  Topology.register_anycast topo anycast (List.map snd boxes);
  { topo; routers; boxes; anycast; degrees; seed }

let client t ~domain ~name ?(bandwidth_bps = 100_000_000)
    ?(latency = ms 1) () =
  if domain < 0 || domain >= Array.length t.routers then
    invalid_arg "Topogen.client: unknown domain";
  let n = Topology.add_node t.topo ~domain ~kind:Host ~name in
  Topology.add_link t.topo t.routers.(domain) n.Topology.nid ~bandwidth_bps
    ~latency ();
  n

(* Canonical 62-bit digest of the generated graph: domains, nodes and
   edges in their stable (insertion-order) listings. Two topologies with
   the same fingerprint are, for the generator's purposes, identical. *)
let fingerprint t =
  let h = ref 0x243f6a8885a308d in
  let fold v = h := Int64.to_int (mix64 (Int64.of_int (!h lxor v))) land max_int in
  List.iter
    (fun (d : Topology.domain) ->
      fold d.did;
      fold (Ipaddr.to_int (Ipaddr.Prefix.network d.prefix));
      String.iter (fun c -> fold (Char.code c)) d.domain_name)
    (Topology.domains t.topo);
  List.iter
    (fun (n : Topology.node) ->
      fold n.nid;
      fold (Ipaddr.to_int n.addr);
      fold n.domain;
      fold (match n.kind with Host -> 1 | Router -> 2 | Neutralizer_box -> 3))
    (Topology.nodes t.topo);
  List.iter
    (fun (e : Topology.edge) ->
      fold e.a;
      fold e.b;
      fold e.bandwidth_bps;
      fold (Int64.to_int e.latency);
      fold
        (match e.rel with
        | None -> 0
        | Some Topology.Customer -> 1
        | Some Topology.Peer -> 2))
    (Topology.edges t.topo);
  !h

let connected t =
  let n = Topology.node_count t.topo in
  if n = 0 then true
  else begin
    let adj = Array.make n [] in
    List.iter
      (fun (e : Topology.edge) ->
        adj.(e.a) <- e.b :: adj.(e.a);
        adj.(e.b) <- e.a :: adj.(e.b))
      (Topology.edges t.topo);
    let seen = Array.make n false in
    let q = Queue.create () in
    Queue.add 0 q;
    seen.(0) <- true;
    let count = ref 1 in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            incr count;
            Queue.add v q
          end)
        adj.(u)
    done;
    !count = n
  end
