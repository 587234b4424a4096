type config = {
  anycast : Net.Ipaddr.t;
  master : Master_key.t;
  rng : int -> string;
  costs : Protocol.costs;
  offload_helper : Net.Ipaddr.t option;
}

let default_config ~anycast ~master ~rng =
  { anycast;
    master;
    rng;
    costs = Protocol.default_costs;
    offload_helper = None
  }

(* The longest QoS dynamic-address lease the box grants, whatever a
   customer asks for: ten simulated minutes. *)
let qos_max_lease = 600_000_000_000L

type counters = {
  mutable key_setups : int;
  mutable data_forwarded : int;
  mutable data_returned : int;
  mutable reverse_grants : int;
  mutable qos_grants : int;
  mutable qos_natted : int;
  mutable offloaded : int;
  mutable rejected : int;
  mutable rejected_bad_tag : int;
  mutable rejected_epoch : int;
  mutable shed : int;
}

type qos_entry = { customer : Net.Ipaddr.t; expires : int64 }

type t = {
  net : Net.Network.t;
  node : Net.Topology.node;
  config : config;
  ctrs : counters;
  qos : (Net.Ipaddr.t, qos_entry) Hashtbl.t;
  gate : Version_gate.t;
  mutable customers : Net.Ipaddr.Prefix.t list;
      (* customer attachments outside the domain prefix (multi-homing) *)
  mutable alive : bool;
  mutable admission : Overload.Admission.t option;
  (* Per-packet obs counters, resolved once at attach: the hot path pays
     a single mutable-int bump, not a registry (name, labels) hash lookup
     per packet. Labeled families (rejects, sheds) stay on the lookup
     path — they are error paths. *)
  c_key_setups : Obs.Counter.t;
  c_data_forwarded : Obs.Counter.t;
  c_data_returned : Obs.Counter.t;
  c_reverse_grants : Obs.Counter.t;
  c_qos_grants : Obs.Counter.t;
  c_qos_natted : Obs.Counter.t;
  c_offloaded : Obs.Counter.t;
}

let counters t = t.ctrs
let node t = t.node
let add_customer t prefix = t.customers <- prefix :: t.customers

let qos_mappings t =
  Hashtbl.fold (fun dyn e acc -> (dyn, e.customer) :: acc) t.qos []

let version_gate t = t.gate

let obs t = Net.Engine.obs (Net.Network.engine t.net)

(* Mirror the counters record into obs metric families
   (core.neutralizer) so a run's behaviour is exportable without
   hand-written hooks. *)
let bump ?labels t name = Obs.Counter.inc (Obs.Registry.counter (obs t) ?labels name)

let shed t ~reason ~klass =
  t.ctrs.shed <- t.ctrs.shed + 1;
  bump t
    ~labels:[ ("reason", reason); ("class", Overload.Admission.klass_name klass) ]
    "core.neutralizer.shed_total"

let reject t reason =
  t.ctrs.rejected <- t.ctrs.rejected + 1;
  bump t ~labels:[ ("reason", reason) ] "core.neutralizer.rejected";
  match reason with
  | "bad-tag" -> t.ctrs.rejected_bad_tag <- t.ctrs.rejected_bad_tag + 1
  | "unknown-epoch" -> t.ctrs.rejected_epoch <- t.ctrs.rejected_epoch + 1
  | _ -> ()

(* Wire-level reject: a frame the strict decoder refused (or the version
   gate refused as a downgrade). Counted twice on purpose — once in the
   box's coarse rejected family (existing dashboards keep working) and
   once in the typed core.proto.reject.neutralizer family keyed by the
   decoder's error label, which is what the chaos run and the fuzz sweep
   assert against. *)
let proto_reject t label =
  bump t ~labels:[ ("reason", label) ] "core.proto.reject.neutralizer";
  reject t (if label = "downgrade" then "downgrade" else "malformed")

let send t p = Net.Network.send t.net ~from:t.node.Net.Topology.nid p

let engine t = Net.Network.engine t.net

let in_own_domain t addr =
  Net.Topology.in_domain (Net.Network.topology t.net) addr
    t.node.Net.Topology.domain
  || List.exists (Net.Ipaddr.Prefix.mem addr) t.customers

(* Whatever bit-flipped garbage the wire delivers, the box stays up: a
   failed CMAC, an undecodable grant, a malformed address all end as a
   counted reject, never an escaping exception. *)
let guarded t f = try f () with _ -> reject t "handler-exception"

(* The box's work on a packet runs once its CPU frees up, one event
   after dispatch, so it needs its own guard. *)
let service t kind ~cost k =
  Net.Network.service ~kind t.net t.node.Net.Topology.nid ~cost (fun () ->
      guarded t k)

(* Key setup (§3.2): one RSA encryption, stateless. *)
let handle_key_setup t (p : Net.Packet.t) pubkey ~deadline =
  (* Already-expired work is shed before the RSA cost is paid: the
     client stopped listening for this reply, so serving it would burn
     box CPU to produce zero goodput. Only checked when admission
     control is enabled — the vanilla box ignores deadlines. *)
  if
    t.admission <> None
    && Int64.compare deadline 0L <> 0
    && Int64.compare deadline (Net.Engine.now (engine t)) < 0
  then shed t ~reason:"deadline" ~klass:Overload.Admission.Setup
  else
  service t Net.Network.Key_setup ~cost:t.config.costs.key_setup (fun () ->
      match t.config.offload_helper with
      | Some helper ->
        (* Stamp the grant and let a willing customer do the RSA work. *)
        let epoch, nonce, key =
          Datapath.fresh_grant ~master:t.config.master ~rng:t.config.rng
            ~src:p.src
        in
        t.ctrs.offloaded <- t.ctrs.offloaded + 1;
        Obs.Counter.inc t.c_offloaded;
        let shim =
          Shim.encode
            (Shim.Offload { pubkey; epoch; nonce; key; requester = p.src })
        in
        send t
          (Net.Packet.make ~protocol:Net.Packet.Shim ~shim
             ~src:t.config.anycast ~dst:helper
             ~sent_at:(Net.Engine.now (engine t))
             ~app:"neutralizer" "")
      | None ->
        (match
           Datapath.key_setup_response ~master:t.config.master
             ~rng:t.config.rng ~src:p.src ~pubkey_blob:pubkey
         with
         | None -> reject t "bad-pubkey"
         | Some (shim, _grant) ->
           t.ctrs.key_setups <- t.ctrs.key_setups + 1;
           Obs.Counter.inc t.c_key_setups;
           send t
             (Net.Packet.make ~protocol:Net.Packet.Shim ~shim
                ~src:t.config.anycast ~dst:p.src ~dscp:p.dscp
                ~sent_at:(Net.Engine.now (engine t))
                ~app:"neutralizer" "")))

let handle_outside_data t (p : Net.Packet.t) (d : Shim.data) =
  service t Net.Network.Data_forward ~cost:t.config.costs.data_forward
    (fun () ->
      match
        Datapath.forward_outside_data ~master:t.config.master
          ~rng:t.config.rng ~self:t.config.anycast p d
      with
      | Datapath.Rejected reason ->
        reject t reason;
        (* A grant from a retired epoch is a routine consequence of
           master-key rotation, not an attack: tell the source to re-key
           so it does not keep shouting into the void. *)
        if reason = "unknown-epoch" then begin
          let shim =
            Shim.encode
              (Shim.Stale_grant
                 { current_epoch = Master_key.current_epoch t.config.master })
          in
          send t
            (Net.Packet.make ~protocol:Net.Packet.Shim ~shim
               ~src:t.config.anycast ~dst:p.src
               ~sent_at:(Net.Engine.now (engine t))
               ~app:"neutralizer" "")
        end
      | Datapath.Forwarded p ->
        t.ctrs.data_forwarded <- t.ctrs.data_forwarded + 1;
        Obs.Counter.inc t.c_data_forwarded;
        send t p)

let handle_return t (p : Net.Packet.t) ~epoch ~nonce ~initiator =
  if not (in_own_domain t p.src) then reject t "return-from-outside"
  else
    service t Net.Network.Data_return ~cost:t.config.costs.data_return
      (fun () ->
        match
          Datapath.forward_return_data ~master:t.config.master
            ~self:t.config.anycast p ~epoch ~nonce ~initiator
        with
        | Datapath.Rejected reason -> reject t reason
        | Datapath.Forwarded p ->
          t.ctrs.data_returned <- t.ctrs.data_returned + 1;
          Obs.Counter.inc t.c_data_returned;
          send t p)

let handle_reverse_key t (p : Net.Packet.t) ~outside =
  if not (in_own_domain t p.src) then reject t "reverse-from-outside"
  else begin
    let epoch, nonce, key =
      Datapath.fresh_grant ~master:t.config.master ~rng:t.config.rng
        ~src:outside
    in
    t.ctrs.reverse_grants <- t.ctrs.reverse_grants + 1;
    Obs.Counter.inc t.c_reverse_grants;
    let shim = Shim.encode (Shim.Reverse_key_response { epoch; nonce; key }) in
    send t
      (Net.Packet.make ~protocol:Net.Packet.Shim ~shim ~src:t.config.anycast
         ~dst:p.src
         ~sent_at:(Net.Engine.now (engine t))
         ~app:"neutralizer" "")
  end

let handle_qos_request t (p : Net.Packet.t) ~lease =
  if not (in_own_domain t p.src) then reject t "qos-from-outside"
  else begin
    let lease = Int64.min lease qos_max_lease in
    let topo = Net.Network.topology t.net in
    let dyn = Net.Topology.fresh_address topo t.node.Net.Topology.domain in
    (* Route the dynamic address to this box by making it a one-member
       anycast group; shortest paths to the box already exist. *)
    Net.Topology.register_anycast topo dyn [ t.node.Net.Topology.nid ];
    Hashtbl.replace t.qos dyn
      { customer = p.src;
        expires = Int64.add (Net.Engine.now (engine t)) lease
      };
    t.ctrs.qos_grants <- t.ctrs.qos_grants + 1;
    Obs.Counter.inc t.c_qos_grants;
    let shim = Shim.encode (Shim.Qos_address_response { addr = dyn; lease }) in
    send t
      (Net.Packet.make ~protocol:Net.Packet.Shim ~shim ~src:t.config.anycast
         ~dst:p.src
         ~sent_at:(Net.Engine.now (engine t))
         ~app:"neutralizer" "")
  end

(* Packets to a QoS dynamic address: plain NAT to the mapped customer,
   flow-identifiable but not customer-identifiable (§3.4). *)
let handle_qos_nat t (p : Net.Packet.t) entry =
  if Int64.compare (Net.Engine.now (engine t)) entry.expires > 0 then begin
    Hashtbl.remove t.qos p.dst;
    reject t "qos-expired"
  end
  else
    service t Net.Network.Vanilla_forward
      ~cost:t.config.costs.vanilla_forward (fun () ->
        t.ctrs.qos_natted <- t.ctrs.qos_natted + 1;
        Obs.Counter.inc t.c_qos_natted;
        send t { p with dst = entry.customer })

let dispatch t (p : Net.Packet.t) =
  match Hashtbl.find_opt t.qos p.dst with
  | Some entry -> handle_qos_nat t p entry
  | None ->
    (match p.protocol with
     | Net.Packet.Udp | Net.Packet.Tcp | Net.Packet.Icmp ->
       reject t "non-shim"
     | Net.Packet.Shim ->
       (match Version_gate.receive t.gate ~peer:p.src p.shim with
        | Error label -> proto_reject t label
        | Ok shim ->
          (match shim with
           | Shim.Key_setup_request { pubkey; deadline } ->
             handle_key_setup t p pubkey ~deadline
           | Shim.Data d when not d.from_customer ->
             if in_own_domain t p.src then reject t "data-from-inside"
             else handle_outside_data t p d
           | Shim.Data _ -> reject t "unexpected-data"
           | Shim.Return { epoch; nonce; initiator } ->
             handle_return t p ~epoch ~nonce ~initiator
           | Shim.Reverse_key_request { outside } ->
             handle_reverse_key t p ~outside
           | Shim.Qos_address_request { lease } ->
             handle_qos_request t p ~lease
           | Shim.Key_setup_response _ | Shim.Reverse_key_response _
           | Shim.Qos_address_response _ | Shim.Offload _
           | Shim.Stale_grant _ ->
             reject t "unexpected-kind")))

let handle t (p : Net.Packet.t) =
  if not t.alive then reject t "crashed"
  else guarded t (fun () -> dispatch t p)

let alive t = t.alive

let crash t =
  if t.alive then begin
    t.alive <- false;
    (* The QoS/NAT table is the box's only per-customer RAM state (the
       grant state is derived from the master key, §3.2 "the neutralizer
       does not keep any state for any source") — a crash loses it, and
       customers must re-request dynamic addresses. The version gate is
       deliberately NOT wiped: like the master key it is security
       posture, not flow state, and forgetting it would let an attacker
       crash the box to win a downgrade. *)
    Hashtbl.reset t.qos;
    bump t "core.neutralizer.crashes"
  end

let restart t =
  if not t.alive then begin
    t.alive <- true;
    bump t "core.neutralizer.restarts"
  end

(* Classify a packet the way the admission gate prices it: key setups
   are the expensive RSA class, established shim data (and QoS-NAT
   traffic to a leased dynamic address) the cheap AES class. The gate
   runs on ingress links, which also carry transit traffic — anything
   not addressed to this box is Other and always admitted. *)
let classify t (p : Net.Packet.t) =
  if Net.Ipaddr.equal p.dst t.config.anycast then
    match p.protocol with
    | Net.Packet.Shim ->
      (match Option.map Shim.decode p.shim with
       | Some (Some (Shim.Key_setup_request { deadline; _ })) ->
         (Overload.Admission.Setup, deadline)
       | Some (Some (Shim.Data _ | Shim.Return _)) ->
         (Overload.Admission.Data, 0L)
       | _ -> (Overload.Admission.Other, 0L))
    | Net.Packet.Udp | Net.Packet.Tcp | Net.Packet.Icmp ->
      (Overload.Admission.Other, 0L)
  else if Hashtbl.mem t.qos p.dst then (Overload.Admission.Data, 0L)
  else (Overload.Admission.Other, 0L)

let enable_admission t adm =
  t.admission <- Some adm;
  let nid = t.node.Net.Topology.nid in
  let gate (p : Net.Packet.t) =
    let klass, deadline = classify t p in
    match klass with
    | Overload.Admission.Other -> true
    | Overload.Admission.Setup | Overload.Admission.Data ->
      (match
         Overload.Admission.admit adm
           ~now:(Net.Engine.now (engine t))
           ~backlog:(Net.Network.backlog t.net nid)
           ~klass ~src:p.src ~deadline ()
       with
       | Overload.Admission.Admit -> true
       | Overload.Admission.Shed reason ->
         shed t ~reason ~klass;
         false)
  in
  Net.Network.iter_links t.net (fun _from to_ link ->
      if to_ = nid then Net.Link.set_gate link (Some gate))

let attach net node config =
  let reg = Net.Engine.obs (Net.Network.engine net) in
  let t =
    { net;
      node;
      config;
      c_key_setups = Obs.Registry.counter reg "core.neutralizer.key_setups";
      c_data_forwarded =
        Obs.Registry.counter reg "core.neutralizer.data_forwarded";
      c_data_returned =
        Obs.Registry.counter reg "core.neutralizer.data_returned";
      c_reverse_grants =
        Obs.Registry.counter reg "core.neutralizer.reverse_grants";
      c_qos_grants = Obs.Registry.counter reg "core.neutralizer.qos_grants";
      c_qos_natted = Obs.Registry.counter reg "core.neutralizer.qos_natted";
      c_offloaded = Obs.Registry.counter reg "core.neutralizer.offloaded";
      ctrs =
        { key_setups = 0;
          data_forwarded = 0;
          data_returned = 0;
          reverse_grants = 0;
          qos_grants = 0;
          qos_natted = 0;
          offloaded = 0;
          rejected = 0;
          rejected_bad_tag = 0;
          rejected_epoch = 0;
          shed = 0
        };
      qos = Hashtbl.create 16;
      gate = Version_gate.create ();
      customers = [];
      alive = true;
      admission = None
    }
  in
  Net.Network.set_handler net node.Net.Topology.nid (fun _net _nid p ->
      handle t p);
  t
