type policy = Shortest | Valley_free

(* Distances are native-int nanoseconds, so the per-hop anycast choice
   reads them without following a boxed [int64]. *)
type t = {
  mode : policy;
  dist : int array array; (* dist.(src).(dst), -1 = unreachable *)
  first_hop : int array array; (* first_hop.(src).(dst), -1 = none *)
}

let policy t = t.mode

(* How a hop from [u] to [v] over edge [e] reads in Gao-Rexford terms. *)
type hop_kind = Intra | Up (* customer -> provider *) | Down | Peer_hop

let hop_kind topo (e : Topology.edge) u =
  let du = (Topology.node topo e.a).domain
  and dv = (Topology.node topo e.b).domain in
  if du = dv then Intra
  else begin
    match e.rel with
    | Some Topology.Customer ->
      (* b's domain is a customer of a's domain *)
      if u = e.a then Down else Up
    | Some Topology.Peer | None -> Peer_hop
  end

(* Valley-free phases: Up = still climbing (customer->provider hops
   only so far), Peered = crossed the one allowed peering link,
   Down = descending. Legal transitions:
     Up   --up-->   Up       Up   --peer--> Peered
     any  --down--> Down     any  --intra-> same
   Everything else is a valley. *)
let phase_up = 0

let phase_peered = 1
let phase_down = 2

let transition phase kind =
  match kind with
  | Intra -> Some phase
  | Up -> if phase = phase_up then Some phase_up else None
  | Peer_hop -> if phase = phase_up then Some phase_peered else None
  | Down -> Some phase_down

let compute ?(policy = Shortest) ?(usable = fun _ -> true) topo =
  let n = Topology.node_count topo in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Topology.edge) ->
      (* A down node neither forwards nor sinks: leaving its edges out
         makes Dijkstra converge around it, the way routing protocols
         converge around a dead router. *)
      if usable e.a && usable e.b then begin
        let w = Int64.to_int e.latency in
        adj.(e.a) <- (e.b, w, e) :: adj.(e.a);
        adj.(e.b) <- (e.a, w, e) :: adj.(e.b)
      end)
    (Topology.edges topo);
  let dist = Array.make_matrix n n (-1) in
  let first_hop = Array.make_matrix n n (-1) in
  let phases = match policy with Shortest -> 1 | Valley_free -> 3 in
  (* state id = node * phases + phase *)
  let states = n * phases in
  for src = 0 to n - 1 do
    let d = Array.make states max_int in
    let hop = Array.make states (-1) in
    let visited = Array.make states false in
    let q = Pqueue.create () in
    let start = src * phases in
    d.(start) <- 0;
    Pqueue.push q 0L 0 start;
    let seq = ref 1 in
    while not (Pqueue.is_empty q) do
      let du = Pqueue.min_time q in
      let su = Pqueue.pop_value q in
      if (not visited.(su)) && du = d.(su) then begin
        visited.(su) <- true;
        let u = su / phases and phase = su mod phases in
        List.iter
          (fun (v, w, e) ->
            let next_phase =
              match policy with
              | Shortest -> Some 0
              | Valley_free -> transition phase (hop_kind topo e u)
            in
            match next_phase with
            | None -> ()
            | Some p ->
              let sv = (v * phases) + p in
              let nd = du + w in
              if nd < d.(sv) then begin
                d.(sv) <- nd;
                hop.(sv) <- (if u = src then v else hop.(su));
                Pqueue.push q (Int64.of_int nd) !seq sv;
                incr seq
              end)
          adj.(u)
      end
    done;
    for dst = 0 to n - 1 do
      (* best over phases *)
      let best = ref max_int and best_hop = ref (-1) in
      for p = 0 to phases - 1 do
        let s = (dst * phases) + p in
        if d.(s) < !best then begin
          best := d.(s);
          best_hop := hop.(s)
        end
      done;
      if !best < max_int then begin
        dist.(src).(dst) <- !best;
        first_hop.(src).(dst) <- !best_hop
      end
    done;
    first_hop.(src).(src) <- src
  done;
  { mode = policy; dist; first_hop }

let distance t ~from ~to_ =
  let d = t.dist.(from).(to_) in
  if d < 0 then None else Some (Int64.of_int d)

(* The reachable member of [members] nearest by [row] (the first on a
   tie), or [from] itself when it is a member; [-1] when none is
   reachable. *)
let rec nearest row from best best_d = function
  | [] -> best
  | m :: rest ->
    if m = from then from
    else begin
      let d = row.(m) in
      if d >= 0 && d < best_d then nearest row from m d rest
      else nearest row from best best_d rest
    end

let next_hop t topo ~from dst =
  let target =
    match Topology.anycast_members topo dst with
    | [] -> Topology.node_id_of_addr topo dst
    | members -> nearest t.dist.(from) from (-1) max_int members
  in
  if target < 0 || target = from then target else t.first_hop.(from).(target)
