type action = Forward | Drop | Delay of int64 | Remark of int

type middleware = Observation.t -> action

type service_kind = Key_setup | Data_forward | Data_return | Vanilla_forward | Other

(* Per-hop state lives in arrays indexed by node and domain id, so a
   packet's walk reads fields instead of hashing ids. *)
type t = {
  engine : Engine.t;
  topo : Topology.t;
  mutable routing : Routing.t;
  mutable nodes : node_state array; (* by node id, grown on demand *)
  mutable domains : domain_state array; (* by domain id, grown on demand *)
  c_delivered : Obs.Counter.t;
  (* Drop counters pre-resolved at creation: [drop] may run on a worker
     domain under a sharded engine (the fluid tier's spill packets), and
     registry resolution mutates a hashtable — only the bumps are
     atomic. *)
  c_drops : Obs.Counter.t array; (* indexed by drop_index *)
  h_service : Obs.Histogram.t array; (* indexed by service_index *)
}

and node_state = {
  mutable handler : handler option;
  mutable busy_until : int; (* end of the service queue's committed work, ns *)
  mutable up : bool;
  mutable out : (Topology.node_id * Link.t) array;
      (* links from this node, in creation order *)
  out_index : int Inttbl.t; (* far-end node id -> position in [out] *)
}

and domain_state = {
  mutable chain : middleware list;
  mutable taps : (Observation.t -> unit) list;
}

and handler = t -> Topology.node_id -> Packet.t -> unit

let engine t = t.engine
let topology t = t.topo

let drop_reasons =
  [| "no_route"; "ttl"; "policy"; "queue"; "link_down"; "node_down"; "shed" |]

let drop_index = function
  | `No_route -> 0
  | `Ttl -> 1
  | `Policy -> 2
  | `Queue -> 3
  | `Link_down -> 4
  | `Node_down -> 5
  | `Shed -> 6

let service_kinds =
  [| "key_setup"; "data_forward"; "data_return"; "vanilla_forward"; "other" |]

let service_index = function
  | Key_setup -> 0
  | Data_forward -> 1
  | Data_return -> 2
  | Vanilla_forward -> 3
  | Other -> 4

let fresh_node _ =
  { handler = None;
    busy_until = 0;
    up = true;
    out = [||];
    out_index = Inttbl.create 4
  }
let fresh_domain _ = { chain = []; taps = [] }

(* [a] grown to hold index [i], new slots from [fresh]. *)
let grown a i fresh =
  let n = Array.length a in
  Array.init (Int.max (i + 1) (2 * n)) (fun j -> if j < n then a.(j) else fresh j)

(* Grow-on-demand accessors: a node or domain the topology gained after
   the last [recompute_routes] starts with the defaults (no handler,
   idle, up, no links, no chain, no taps). [recompute_routes] sizes the
   arrays to the whole topology, so the packet path run by worker
   domains only reads them. *)
let node_state t nid =
  if nid >= Array.length t.nodes then t.nodes <- grown t.nodes nid fresh_node;
  t.nodes.(nid)

let domain_state t did =
  if did >= Array.length t.domains then
    t.domains <- grown t.domains did fresh_domain;
  t.domains.(did)

let drop t reason = Obs.Counter.inc t.c_drops.(drop_index reason)

let set_handler t nid h = (node_state t nid).handler <- Some h

let add_middleware t did m =
  let d = domain_state t did in
  d.chain <- d.chain @ [ m ]

let set_middlewares t did ms = (domain_state t did).chain <- ms
let policed t did = match (domain_state t did).chain with [] -> false | _ -> true

let add_tap t did f =
  let d = domain_state t did in
  d.taps <- d.taps @ [ f ]

(* Position of the link [st -> b] in [st.out], or [-1]. *)
let out_position st b = Inttbl.find st.out_index b ~default:(-1)

let link_between t a b =
  let st = node_state t a in
  let i = out_position st b in
  if i < 0 then None else Some (snd st.out.(i))

let iter_links t f =
  Array.iteri
    (fun a st -> Array.iter (fun (b, link) -> f a b link) st.out)
    t.nodes

(* Node liveness (fault injection): a down node neither originates,
   transits nor receives packets — its in-flight traffic is dropped
   with reason [node_down]. *)
let set_node_up t nid ~up = (node_state t nid).up <- up
let node_up t nid = (node_state t nid).up

let drop_of_send_result t = function
  | Link.Sent -> ()
  | Link.Dropped Link.Queue_full -> drop t `Queue
  | Link.Dropped Link.Link_down -> drop t `Link_down
  | Link.Dropped Link.Shed -> drop t `Shed

(* Hand [p] to the link [nid -> next], or drop it as unroutable when
   the two are not adjacent. *)
let send_on t nid next p =
  let st = node_state t nid in
  let i = out_position st next in
  if i < 0 then drop t `No_route
  else drop_of_send_result t (Link.send (snd st.out.(i)) p)

let fire_taps t (d : domain_state) p =
  match d.taps with
  | [] -> ()
  | fs ->
    let obs = Observation.of_packet ~now:(Engine.now t.engine) p in
    List.iter (fun f -> f obs) fs

let is_local t (node : Topology.node) (p : Packet.t) =
  Ipaddr.equal p.dst node.addr || Topology.serves t.topo p.dst node.nid

let deliver t nid p =
  Obs.Counter.inc t.c_delivered;
  match (node_state t nid).handler with
  | Some h -> h t nid p
  | None -> ()

(* Run a non-empty middleware chain; the continuation receives the
   possibly re-marked packet. Delay re-enters after the pause without
   re-running the chain (the verdict for this hop has been rendered).
   Unpoliced domains skip this entirely (see the callers). *)
let apply_middlewares t chain p k =
  let obs = Observation.of_packet ~now:(Engine.now t.engine) p in
  let rec go chain p =
    match chain with
    | [] -> k (Some p)
    | m :: rest ->
      (match m obs with
       | Forward -> go rest p
       | Drop ->
         drop t `Policy;
         k None
       | Delay d ->
         ignore (Engine.schedule t.engine ~delay:d (fun () -> k (Some p)))
       | Remark dscp -> go rest { p with Packet.dscp })
  in
  go chain p

let rec receive t nid (p : Packet.t) =
  if not (node_up t nid) then drop t `Node_down
  else begin
    let node = Topology.node t.topo nid in
    let d = domain_state t node.domain in
    fire_taps t d p;
    if is_local t node p then
      (* Ingress policing: the domain's middleware also covers packets
         delivered to local nodes (hosts, neutralizer boxes). *)
      match d.chain with
      | [] -> deliver t nid p
      | chain ->
        apply_middlewares t chain p (function
          | None -> ()
          | Some p -> deliver t nid p)
    else transit t nid d p
  end

and transit t nid d (p : Packet.t) =
  if p.ttl <= 1 then drop t `Ttl
  else begin
    let p = { p with ttl = p.ttl - 1 } in
    match d.chain with
    | [] -> forward t nid p
    | chain ->
      apply_middlewares t chain p (function
        | None -> ()
        | Some p -> forward t nid p)
  end

and forward t nid (p : Packet.t) =
  let next = Routing.next_hop t.routing t.topo ~from:nid p.dst in
  if next < 0 then drop t `No_route
  else if next = nid then deliver t nid p
  else send_on t nid next p

let send t ~from p =
  if not (node_up t from) then drop t `Node_down
  else begin
    let node = Topology.node t.topo from in
    fire_taps t (domain_state t node.domain) p;
    if is_local t node p then deliver t from p else forward t from p
  end

let service ?(kind = Other) t nid ~cost k =
  (* Per-hop processing-cost charge, broken out by operation kind
     (crypto op at the neutralizer, vanilla forward, ...). *)
  Obs.Histogram.add t.h_service.(service_index kind) (Int64.to_int cost);
  let st = node_state t nid in
  let now = Engine.now_int t.engine in
  let finish = Int.max st.busy_until now + Int64.to_int cost in
  st.busy_until <- finish;
  ignore (Engine.schedule_int t.engine ~delay:(finish - now) k)

let backlog t nid =
  let now = Engine.now_int t.engine in
  Int64.of_int (Int.max 0 ((node_state t nid).busy_until - now))

(* Cover every node and domain, instantiate link objects for any
   topology edges added since creation, then rebuild the shortest-path
   tables. *)
let recompute_routes t =
  let last_node = Topology.node_count t.topo - 1 in
  if last_node >= Array.length t.nodes then
    t.nodes <- grown t.nodes last_node fresh_node;
  let last_domain = List.length (Topology.domains t.topo) - 1 in
  if last_domain >= Array.length t.domains then
    t.domains <- grown t.domains last_domain fresh_domain;
  List.iter
    (fun (e : Topology.edge) ->
      let ensure a b =
        let st = node_state t a in
        if out_position st b < 0 then begin
          let label =
            (Topology.node t.topo a).node_name ^ "->"
            ^ (Topology.node t.topo b).node_name
          in
          let link =
            Link.create t.engine ~bandwidth_bps:e.bandwidth_bps
              ~latency:e.latency ~queue_bytes:e.queue_bytes ~label
              ~deliver:(fun p -> receive t b p)
              ()
          in
          Inttbl.replace st.out_index b (Array.length st.out);
          st.out <- Array.append st.out [| (b, link) |]
        end
      in
      ensure e.a e.b;
      ensure e.b e.a)
    (Topology.edges t.topo);
  t.routing <- Routing.compute ~usable:(node_up t) t.topo

let create engine topo =
  let obs = Engine.obs engine in
  let t =
    { engine;
      topo;
      routing = Routing.compute topo;
      nodes = [||];
      domains = [||];
      c_delivered = Obs.Registry.counter obs "net.network.delivered";
      c_drops =
        Array.map
          (fun reason ->
            Obs.Registry.counter obs ~labels:[ ("reason", reason) ]
              "net.network.dropped")
          drop_reasons;
      h_service =
        Array.map
          (fun kind ->
            Obs.Registry.histogram obs ~labels:[ ("kind", kind) ]
              "net.network.service_ns")
          service_kinds
    }
  in
  recompute_routes t;
  t

(* Wire-level injection: the packet arrives at [nid] as if off a link —
   transit middleware, TTL, policy and all. The fluid tier's spill
   boundary uses this to drop representative packets into a boundary
   domain exactly where the aggregate's traffic would enter it. *)
let inject t nid p = receive t nid p

let route_path t ~from dst =
  let n = Topology.node_count t.topo in
  let rec walk acc hops nid =
    if hops > n then None (* routing loop; cannot happen on converged tables *)
    else
      let next = Routing.next_hop t.routing t.topo ~from:nid dst in
      if next < 0 then None
      else if next = nid then Some (List.rev (nid :: acc))
      else walk (nid :: acc) (hops + 1) next
  in
  walk [] 0 from

let run ?pool ?until ?max_events t =
  Engine.run ?pool ?until ?max_events t.engine
