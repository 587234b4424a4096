type node_kind = Host | Router | Neutralizer_box
type domain_id = int
type node_id = int
type relationship = Customer | Peer

type domain = {
  did : domain_id;
  domain_name : string;
  prefix : Ipaddr.Prefix.t;
}

type node = {
  nid : node_id;
  kind : node_kind;
  addr : Ipaddr.t;
  domain : domain_id;
  node_name : string;
}

type edge = {
  a : node_id;
  b : node_id;
  bandwidth_bps : int;
  latency : int64;
  queue_bytes : int;
  rel : relationship option;
}

type t = {
  mutable doms : domain list; (* newest first *)
  mutable next_host : (domain_id, int) Hashtbl.t;
  mutable nods : node list; (* newest first *)
  mutable edgs : edge list;
  by_addr : node_id Inttbl.t; (* keyed on [Ipaddr.to_int] *)
  mutable by_id : node array; (* by_id.(nid) for nid < n_nodes *)
  anycast : node_id list Inttbl.t; (* keyed on [Ipaddr.to_int] *)
  mutable n_nodes : int;
  mutable n_domains : int;
}

let create () =
  { doms = [];
    next_host = Hashtbl.create 16;
    nods = [];
    edgs = [];
    by_addr = Inttbl.create 64;
    by_id = [||];
    anycast = Inttbl.create 8;
    n_nodes = 0;
    n_domains = 0
  }

let add_domain t ~name ~prefix =
  let did = t.n_domains in
  t.n_domains <- did + 1;
  let prefix = Ipaddr.Prefix.of_string prefix in
  t.doms <- { did; domain_name = name; prefix } :: t.doms;
  Hashtbl.replace t.next_host did 1;
  did

let domain t did =
  match List.find_opt (fun d -> d.did = did) t.doms with
  | Some d -> d
  | None -> invalid_arg "Topology.domain: unknown domain"

let fresh_address t did =
  let d = domain t did in
  let i = Hashtbl.find t.next_host did in
  Hashtbl.replace t.next_host did (i + 1);
  Ipaddr.Prefix.nth d.prefix i

let add_node t ~domain:did ~kind ~name =
  let addr = fresh_address t did in
  let nid = t.n_nodes in
  t.n_nodes <- nid + 1;
  let n = { nid; kind; addr; domain = did; node_name = name } in
  t.nods <- n :: t.nods;
  Inttbl.replace t.by_addr (Ipaddr.to_int addr) nid;
  if nid = Array.length t.by_id then begin
    let grown = Array.make (max 16 (2 * nid)) n in
    Array.blit t.by_id 0 grown 0 nid;
    t.by_id <- grown
  end;
  t.by_id.(nid) <- n;
  n

let add_link t a b ~bandwidth_bps ~latency ?(queue_bytes = 128 * 1024) ?rel ()
    =
  if a = b then invalid_arg "Topology.add_link: self loop";
  t.edgs <- { a; b; bandwidth_bps; latency; queue_bytes; rel } :: t.edgs

let rec mem_id nid = function
  | [] -> false
  | m :: rest -> Int.equal m nid || mem_id nid rest

let register_anycast t addr members =
  Inttbl.replace t.anycast (Ipaddr.to_int addr) members

let remove_anycast_member t addr nid =
  let k = Ipaddr.to_int addr in
  match Inttbl.find t.anycast k ~default:[] with
  | [] -> ()
  | members -> Inttbl.replace t.anycast k (List.filter (fun m -> m <> nid) members)

let add_anycast_member t addr nid =
  let k = Ipaddr.to_int addr in
  let members = Inttbl.find t.anycast k ~default:[] in
  if not (mem_id nid members) then
    (* keep the original announcement order: late (re)joins append *)
    Inttbl.replace t.anycast k (members @ [ nid ])

let anycast_groups t =
  Inttbl.fold
    (fun k members acc -> (Ipaddr.of_int k, members) :: acc)
    t.anycast []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let node t nid =
  if nid < 0 || nid >= t.n_nodes then invalid_arg "Topology.node: unknown node";
  t.by_id.(nid)

let nodes t = List.rev t.nods
let domains t = List.rev t.doms
let edges t = List.rev t.edgs
let node_count t = t.n_nodes
let node_id_of_addr t addr =
  Inttbl.find t.by_addr (Ipaddr.to_int addr) ~default:(-1)

let node_by_name t name =
  List.find_opt (fun n -> n.node_name = name) t.nods

let anycast_members t addr =
  Inttbl.find t.anycast (Ipaddr.to_int addr) ~default:[]

let serves t addr nid = mem_id nid (anycast_members t addr)

let domain_of_addr t addr =
  let candidates =
    List.filter (fun d -> Ipaddr.Prefix.mem addr d.prefix) t.doms
  in
  match
    List.sort
      (fun d1 d2 ->
        Stdlib.compare
          (Ipaddr.Prefix.length d2.prefix)
          (Ipaddr.Prefix.length d1.prefix))
      candidates
  with
  | d :: _ -> Some d
  | [] -> None

(* Shard assignment for the parallel event engine: nodes of one domain
   stay together (intra-domain traffic is the chatty part), domains are
   striped round-robin across shards. *)
let shard_of t ~shards nid =
  if shards < 1 then invalid_arg "Topology.shard_of: shards must be >= 1";
  (node t nid).domain mod shards

let cross_shard_lookahead t ~shards =
  List.fold_left
    (fun acc e ->
      if shard_of t ~shards e.a = shard_of t ~shards e.b then acc
      else
        match acc with
        | None -> Some e.latency
        | Some l -> if Int64.compare e.latency l < 0 then Some e.latency else acc)
    None t.edgs

let in_domain t addr did =
  match domain_of_addr t addr with
  | Some d -> d.did = did
  | None -> false
