type policy = Shortest | Valley_free

type t = {
  mode : policy;
  dist : int64 array array; (* dist.(src).(dst), -1L = unreachable *)
  first_hop : int array array; (* first_hop.(src).(dst), -1 = none *)
}

let infinity64 = Int64.max_int
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
        adj.(e.a) <- (e.b, e.latency, e) :: adj.(e.a);
        adj.(e.b) <- (e.a, e.latency, e) :: adj.(e.b)
      end)
    (Topology.edges topo);
  let dist = Array.make_matrix n n (-1L) in
  let first_hop = Array.make_matrix n n (-1) in
  let phases = match policy with Shortest -> 1 | Valley_free -> 3 in
  (* state id = node * phases + phase *)
  let states = n * phases in
  for src = 0 to n - 1 do
    let d = Array.make states infinity64 in
    let hop = Array.make states (-1) in
    let visited = Array.make states false in
    let q = Pqueue.create () in
    let start = src * phases in
    d.(start) <- 0L;
    Pqueue.push q 0L 0 start;
    let seq = ref 1 in
    let rec drain () =
      match Pqueue.pop_min q with
      | None -> ()
      | Some (du, _, su) ->
        if (not visited.(su)) && Int64.equal du d.(su) then begin
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
                let nd = Int64.add du w in
                if Int64.compare nd d.(sv) < 0 then begin
                  d.(sv) <- nd;
                  hop.(sv) <- (if u = src then v else hop.(su));
                  Pqueue.push q nd !seq sv;
                  incr seq
                end)
            adj.(u)
        end;
        drain ()
    in
    drain ();
    for dst = 0 to n - 1 do
      (* best over phases *)
      let best = ref infinity64 and best_hop = ref (-1) in
      for p = 0 to phases - 1 do
        let s = (dst * phases) + p in
        if Int64.compare d.(s) !best < 0 then begin
          best := d.(s);
          best_hop := hop.(s)
        end
      done;
      if Int64.compare !best infinity64 < 0 then begin
        dist.(src).(dst) <- !best;
        first_hop.(src).(dst) <- !best_hop
      end
    done;
    first_hop.(src).(src) <- src
  done;
  { mode = policy; dist; first_hop }

let distance t ~from ~to_ =
  let d = t.dist.(from).(to_) in
  if Int64.compare d 0L < 0 then None else Some d

let nearest t ~from members =
  let best =
    List.fold_left
      (fun acc m ->
        match distance t ~from ~to_:m with
        | None -> acc
        | Some d ->
          (match acc with
           | Some (_, bd) when Int64.compare bd d <= 0 -> acc
           | _ -> Some (m, d)))
      None members
  in
  Option.map fst best

let next_hop t topo ~from dst =
  let target =
    match Topology.anycast_members topo dst with
    | [] ->
      Option.map (fun (n : Topology.node) -> n.nid)
        (Topology.node_of_addr topo dst)
    | members ->
      if List.mem from members then Some from else nearest t ~from members
  in
  match target with
  | None -> None
  | Some target ->
    if target = from then Some from
    else begin
      let hop = t.first_hop.(from).(target) in
      if hop < 0 then None else Some hop
    end
