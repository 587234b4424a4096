type profile = {
  loss : float;
  corrupt : float;
  duplicate : float;
  reorder : float;
  reorder_max : int64;
}

let calm =
  { loss = 0.0;
    corrupt = 0.0;
    duplicate = 0.0;
    reorder = 0.0;
    reorder_max = 0L
  }

type t = {
  net : Net.Network.t;
  prng : Prng.t;
  crashed : (Net.Topology.node_id, Net.Ipaddr.t list) Hashtbl.t;
      (* anycast groups the node was serving when it crashed *)
  on_crash : (Net.Topology.node_id, unit -> unit) Hashtbl.t;
  on_restart : (Net.Topology.node_id, unit -> unit) Hashtbl.t;
  mutable partition_cut : (Net.Topology.node_id * Net.Topology.node_id) list;
  mutable injected_total : int;
}

let env_seed () =
  match Sys.getenv_opt "FAULT_SEED" with
  | None -> 1
  | Some s ->
    (match int_of_string_opt s with
     | Some n -> n
     | None ->
       Printf.ksprintf failwith "FAULT_SEED must be an integer, got %S" s)

let create ?seed net =
  let seed = match seed with Some s -> s | None -> env_seed () in
  { net;
    prng = Prng.create ~seed;
    crashed = Hashtbl.create 4;
    on_crash = Hashtbl.create 4;
    on_restart = Hashtbl.create 4;
    partition_cut = [];
    injected_total = 0
  }

let network t = t.net
let prng t = t.prng
let injected t = t.injected_total
let engine t = Net.Network.engine t.net
let obs t = Net.Engine.obs (engine t)

let count t kind =
  t.injected_total <- t.injected_total + 1;
  Obs.Counter.inc
    (Obs.Registry.counter (obs t) ~labels:[ ("kind", kind) ]
       "fault.injected_total")

let record_recovery ?(kind = "failover") t ~since =
  let elapsed = Int64.sub (Net.Engine.now (engine t)) since in
  Obs.Histogram.add
    (Obs.Registry.histogram (obs t) ~labels:[ ("kind", kind) ]
       "fault.recovery_ns")
    (Int64.to_int (Int64.max 0L elapsed))

(* ---- Per-link wire perturbation ---- *)

let flip_bit rng s =
  if String.length s = 0 then s
  else begin
    let i = Prng.int rng (String.length s) in
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Prng.int rng 8)));
    Bytes.to_string b
  end

let corrupt_packet rng (p : Net.Packet.t) =
  (* Flip one bit of the wire image, weighted towards whichever of the
     shim and payload is longer — headers and bodies both rot. *)
  let shim_len = match p.shim with None -> 0 | Some s -> String.length s in
  let pay_len = String.length p.payload in
  if shim_len + pay_len = 0 then p
  else if Prng.int rng (shim_len + pay_len) < shim_len then
    { p with shim = Option.map (flip_bit rng) p.shim }
  else { p with payload = flip_bit rng p.payload }

let perturb_link t ~label ~profile link =
  if profile = calm then Net.Link.set_perturb link None
  else begin
    let rng = Prng.split t.prng ~label:("link:" ^ label) in
    Net.Link.set_perturb link
      (Some
         (fun p ->
           if Prng.bool rng ~p:profile.loss then begin
             count t "loss";
             []
           end
           else begin
             let p =
               if Prng.bool rng ~p:profile.corrupt then begin
                 count t "corrupt";
                 corrupt_packet rng p
               end
               else p
             in
             let extra =
               if
                 Prng.bool rng ~p:profile.reorder
                 && Int64.compare profile.reorder_max 0L > 0
               then begin
                 count t "reorder";
                 Prng.int64 rng profile.reorder_max
               end
               else 0L
             in
             if Prng.bool rng ~p:profile.duplicate then begin
               count t "duplicate";
               [ (p, extra); (p, extra) ]
             end
             else [ (p, extra) ]
           end))
  end

let perturb_all_links t ~profile =
  let topo = Net.Network.topology t.net in
  Net.Network.iter_links t.net (fun a b link ->
      let label =
        (Net.Topology.node topo a).node_name ^ "->"
        ^ (Net.Topology.node topo b).node_name
      in
      perturb_link t ~label ~profile link)

(* ---- Topology-level faults ---- *)

let with_link t a b f =
  (match Net.Network.link_between t.net a b with
   | Some l -> f l
   | None -> ());
  match Net.Network.link_between t.net b a with
  | Some l -> f l
  | None -> ()

let link_down t a b =
  count t "link_down";
  with_link t a b (fun l -> Net.Link.set_up l false)

let link_up t a b =
  count t "link_up";
  with_link t a b (fun l -> Net.Link.set_up l true)

let on_crash t nid f = Hashtbl.replace t.on_crash nid f
let on_restart t nid f = Hashtbl.replace t.on_restart nid f
let node_crashed t nid = Hashtbl.mem t.crashed nid

let node_crash t nid =
  if not (Hashtbl.mem t.crashed nid) then begin
    let topo = Net.Network.topology t.net in
    let memberships =
      List.filter_map
        (fun (addr, members) ->
          if List.mem nid members then Some addr else None)
        (Net.Topology.anycast_groups topo)
    in
    (* The crashed box's route announcements vanish: withdraw it from
       every anycast group it served and let routing converge on the
       surviving members. *)
    List.iter
      (fun addr -> Net.Topology.remove_anycast_member topo addr nid)
      memberships;
    Net.Network.set_node_up t.net nid ~up:false;
    Net.Network.recompute_routes t.net;
    Hashtbl.replace t.crashed nid memberships;
    count t "node_crash";
    match Hashtbl.find_opt t.on_crash nid with
    | Some f -> f ()
    | None -> ()
  end

let node_restart t nid =
  match Hashtbl.find_opt t.crashed nid with
  | None -> ()
  | Some memberships ->
    Hashtbl.remove t.crashed nid;
    let topo = Net.Network.topology t.net in
    List.iter
      (fun addr -> Net.Topology.add_anycast_member topo addr nid)
      memberships;
    Net.Network.set_node_up t.net nid ~up:true;
    Net.Network.recompute_routes t.net;
    count t "node_restart";
    (match Hashtbl.find_opt t.on_restart nid with
     | Some f -> f ()
     | None -> ())

let partition t ~domains =
  let topo = Net.Network.topology t.net in
  let inside nid = List.mem (Net.Topology.node topo nid).domain domains in
  let cut =
    List.filter_map
      (fun (e : Net.Topology.edge) ->
        if inside e.a <> inside e.b then Some (e.a, e.b) else None)
      (Net.Topology.edges topo)
  in
  count t "partition";
  List.iter
    (fun (a, b) -> with_link t a b (fun l -> Net.Link.set_up l false))
    cut;
  t.partition_cut <- cut @ t.partition_cut

let heal t =
  if t.partition_cut <> [] then begin
    count t "heal";
    List.iter
      (fun (a, b) -> with_link t a b (fun l -> Net.Link.set_up l true))
      t.partition_cut;
    t.partition_cut <- []
  end
