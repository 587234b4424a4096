(* Distances are native-int nanoseconds, so the per-hop anycast choice
   reads them without following a boxed [int64]. *)
type t = {
  dist : int array array; (* dist.(src).(dst), -1 = unreachable *)
  first_hop : int array array; (* first_hop.(src).(dst), -1 = none *)
}

let compute ?(usable = fun _ -> true) topo =
  let n = Topology.node_count topo in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Topology.edge) ->
      (* A down node neither forwards nor sinks: leaving its edges out
         makes Dijkstra converge around it, the way routing protocols
         converge around a dead router. *)
      if usable e.a && usable e.b then begin
        let w = Int64.to_int e.latency in
        adj.(e.a) <- (e.b, w) :: adj.(e.a);
        adj.(e.b) <- (e.a, w) :: adj.(e.b)
      end)
    (Topology.edges topo);
  let dist = Array.make_matrix n n (-1) in
  let first_hop = Array.make_matrix n n (-1) in
  for src = 0 to n - 1 do
    let d = Array.make n max_int in
    let hop = Array.make n (-1) in
    let visited = Array.make n false in
    let q = Pqueue.create () in
    d.(src) <- 0;
    Pqueue.push q 0L 0 src;
    let seq = ref 1 in
    while not (Pqueue.is_empty q) do
      let du = Pqueue.min_time q in
      let u = Pqueue.pop_value q in
      if (not visited.(u)) && du = d.(u) then begin
        visited.(u) <- true;
        List.iter
          (fun (v, w) ->
            let nd = du + w in
            if nd < d.(v) then begin
              d.(v) <- nd;
              hop.(v) <- (if u = src then v else hop.(u));
              Pqueue.push q (Int64.of_int nd) !seq v;
              incr seq
            end)
          adj.(u)
      end
    done;
    for dst = 0 to n - 1 do
      if d.(dst) < max_int then begin
        dist.(src).(dst) <- d.(dst);
        first_hop.(src).(dst) <- hop.(dst)
      end
    done;
    first_hop.(src).(src) <- src
  done;
  { dist; first_hop }

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
