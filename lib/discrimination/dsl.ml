type throttle_spec = {
  rate_bps : int;
  burst_bytes : int;
  max_delay_ns : int64;
}

type rate_spec = { bps : int; window_ns : int64 }

type pred =
  | True
  | False
  | Src_in of Net.Ipaddr.Prefix.t
  | Dst_in of Net.Ipaddr.Prefix.t
  | Addr of Net.Ipaddr.t
  | Src_port of int
  | Dst_port of int
  | Dscp of int
  | Protocol of int
  | App of Classifier.app_class
  | Shim_present
  | Key_setup
  | Looks_encrypted
  | Entropy_at_least of float
  | Size_at_least of int
  | Rate_above of rate_spec
  | Not of pred
  | And of pred * pred
  | Or of pred * pred

type act =
  | Allow
  | Drop
  | Delay of int64
  | Throttle of throttle_spec
  | Set_dscp of int
  | Deprioritize

let scavenger_dscp = 8

let throttle ~rate_bps =
  Throttle { rate_bps; burst_bytes = 16 * 1024; max_delay_ns = 500_000_000L }

type policy =
  | Nil
  | Rule of pred * act
  | Seq of policy * policy
  | Union of policy * policy
  | Restrict of pred * policy
  | In_domain of Net.Topology.domain_id * policy

type verdict =
  | V_forward
  | V_allow
  | V_drop
  | V_delay of int64
  | V_throttle of int * throttle_spec
  | V_remark of int

let verdict_to_string = function
  | V_forward -> "forward"
  | V_allow -> "allow"
  | V_drop -> "drop"
  | V_delay d -> Printf.sprintf "delay:%Ld" d
  | V_throttle (i, s) ->
      Printf.sprintf "throttle:%d:%d:%d:%Ld" i s.rate_bps s.burst_bytes
        s.max_delay_ns
  | V_remark d -> Printf.sprintf "remark:%d" d

let rec pp_pred fmt = function
  | True -> Format.pp_print_string fmt "true"
  | False -> Format.pp_print_string fmt "false"
  | Src_in p ->
      Format.fprintf fmt "src_in(%s)" (Net.Ipaddr.Prefix.to_string p)
  | Dst_in p ->
      Format.fprintf fmt "dst_in(%s)" (Net.Ipaddr.Prefix.to_string p)
  | Addr a -> Format.fprintf fmt "addr(%a)" Net.Ipaddr.pp a
  | Src_port p -> Format.fprintf fmt "sport=%d" p
  | Dst_port p -> Format.fprintf fmt "dport=%d" p
  | Dscp d -> Format.fprintf fmt "dscp=%d" d
  | Protocol p -> Format.fprintf fmt "proto=%d" p
  | App c -> Format.fprintf fmt "app=%a" Classifier.pp_app_class c
  | Shim_present -> Format.pp_print_string fmt "shim"
  | Key_setup -> Format.pp_print_string fmt "key_setup"
  | Looks_encrypted -> Format.pp_print_string fmt "encrypted"
  | Entropy_at_least e -> Format.fprintf fmt "entropy>=%.2f" e
  | Size_at_least n -> Format.fprintf fmt "size>=%d" n
  | Rate_above r ->
      Format.fprintf fmt "rate>%dbps/%Ldns" r.bps r.window_ns
  | Not p -> Format.fprintf fmt "!(%a)" pp_pred p
  | And (a, b) -> Format.fprintf fmt "(%a & %a)" pp_pred a pp_pred b
  | Or (a, b) -> Format.fprintf fmt "(%a | %a)" pp_pred a pp_pred b

let pp_act fmt = function
  | Allow -> Format.pp_print_string fmt "allow"
  | Drop -> Format.pp_print_string fmt "drop"
  | Delay d -> Format.fprintf fmt "delay(%Ldns)" d
  | Throttle s -> Format.fprintf fmt "throttle(%dbps)" s.rate_bps
  | Set_dscp d -> Format.fprintf fmt "set_dscp(%d)" d
  | Deprioritize -> Format.pp_print_string fmt "deprioritize"

let rec pp_policy fmt = function
  | Nil -> Format.pp_print_string fmt "nil"
  | Rule (p, a) -> Format.fprintf fmt "%a -> %a" pp_pred p pp_act a
  | Seq (a, b) -> Format.fprintf fmt "(%a ; %a)" pp_policy a pp_policy b
  | Union (a, b) -> Format.fprintf fmt "(%a + %a)" pp_policy a pp_policy b
  | Restrict (p, q) ->
      Format.fprintf fmt "(%a @@ %a)" pp_pred p pp_policy q
  | In_domain (d, q) -> Format.fprintf fmt "(dom%d: %a)" d pp_policy q

(* Lowered form: every [Rate_above] occurrence carries a meter id and
   every [Throttle] a shaper id, assigned by in-order traversal — so the
   interpreter and any compilation of the same tree agree on which
   occurrence is which and their verdicts are comparable byte-for-byte. *)

type ipred =
  | IP_true
  | IP_false
  | IP_src_in of Net.Ipaddr.Prefix.t
  | IP_dst_in of Net.Ipaddr.Prefix.t
  | IP_addr of Net.Ipaddr.t
  | IP_src_port of int
  | IP_dst_port of int
  | IP_dscp of int
  | IP_protocol of int
  | IP_app of Classifier.app_class
  | IP_shim_present
  | IP_key_setup
  | IP_looks_encrypted
  | IP_entropy_at_least of float
  | IP_size_at_least of int
  | IP_rate_above of int * rate_spec
  | IP_not of ipred
  | IP_and of ipred * ipred
  | IP_or of ipred * ipred

type iact =
  | A_allow
  | A_drop
  | A_delay of int64
  | A_throttle of int * throttle_spec
  | A_remark of int

type lpolicy =
  | L_nil
  | L_rule of ipred * iact
  | L_seq of lpolicy * lpolicy
  | L_union of lpolicy * lpolicy
  | L_restrict of ipred * lpolicy
  | L_in_domain of Net.Topology.domain_id * lpolicy

type lowered = {
  tree : lpolicy;
  meter_specs : rate_spec array;
  shaper_specs : throttle_spec array;
}

let lower (p : policy) : lowered =
  let meters = ref [] and n_meters = ref 0 in
  let shapers = ref [] and n_shapers = ref 0 in
  let rec lp = function
    | True -> IP_true
    | False -> IP_false
    | Src_in p -> IP_src_in p
    | Dst_in p -> IP_dst_in p
    | Addr a -> IP_addr a
    | Src_port p -> IP_src_port p
    | Dst_port p -> IP_dst_port p
    | Dscp d -> IP_dscp d
    | Protocol p -> IP_protocol p
    | App c -> IP_app c
    | Shim_present -> IP_shim_present
    | Key_setup -> IP_key_setup
    | Looks_encrypted -> IP_looks_encrypted
    | Entropy_at_least e -> IP_entropy_at_least e
    | Size_at_least n -> IP_size_at_least n
    | Rate_above r ->
        let id = !n_meters in
        incr n_meters;
        meters := r :: !meters;
        IP_rate_above (id, r)
    | Not p -> IP_not (lp p)
    | And (a, b) ->
        let a = lp a in
        IP_and (a, lp b)
    | Or (a, b) ->
        let a = lp a in
        IP_or (a, lp b)
  in
  let la = function
    | Allow -> A_allow
    | Drop -> A_drop
    | Delay d -> A_delay d
    | Throttle s ->
        let id = !n_shapers in
        incr n_shapers;
        shapers := s :: !shapers;
        A_throttle (id, s)
    | Set_dscp d -> A_remark d
    | Deprioritize -> A_remark scavenger_dscp
  in
  let rec go = function
    | Nil -> L_nil
    | Rule (p, a) ->
        let p = lp p in
        L_rule (p, la a)
    | Seq (a, b) ->
        let a = go a in
        L_seq (a, go b)
    | Union (a, b) ->
        let a = go a in
        L_union (a, go b)
    | Restrict (p, q) ->
        let p = lp p in
        L_restrict (p, go q)
    | In_domain (d, q) -> L_in_domain (d, go q)
  in
  let tree = go p in
  { tree;
    meter_specs = Array.of_list (List.rev !meters);
    shaper_specs = Array.of_list (List.rev !shapers)
  }

(* Rate meters: a two-bucket sliding window over the observation stream.
   Purely a function of the observations fed in (simulated timestamps
   and sizes), so two meter instances driven by the same stream agree
   bit-for-bit regardless of engine sharding or wall-clock. *)

type meter = {
  mspec : rate_spec;
  mutable cur_window : int64;
  mutable cur_bytes : int;
  mutable prev_bytes : int;
}

let meter_create spec = { mspec = spec; cur_window = 0L; cur_bytes = 0; prev_bytes = 0 }

let meter_update m (o : Net.Observation.t) =
  let w = Int64.div o.observed_at m.mspec.window_ns in
  if Int64.equal w m.cur_window then m.cur_bytes <- m.cur_bytes + o.size
  else begin
    m.prev_bytes <-
      (if Int64.equal w (Int64.succ m.cur_window) then m.cur_bytes else 0);
    m.cur_window <- w;
    m.cur_bytes <- o.size
  end

let meter_above m (o : Net.Observation.t) =
  let win = Int64.to_float m.mspec.window_ns in
  let frac = Int64.to_float (Int64.rem o.observed_at m.mspec.window_ns) /. win in
  let bytes =
    (float_of_int m.prev_bytes *. (1.0 -. frac)) +. float_of_int m.cur_bytes
  in
  bytes *. 8e9 /. win > float_of_int m.mspec.bps

(* Predicate evaluation. [dscp] is the effective DSCP — the packet's own
   unless a [Seq] remark re-bound it for the right-hand side. *)
let rec eval meters ~dscp p (o : Net.Observation.t) =
  match p with
  | IP_true -> true
  | IP_false -> false
  | IP_src_in pre -> Net.Ipaddr.Prefix.mem o.src pre
  | IP_dst_in pre -> Net.Ipaddr.Prefix.mem o.dst pre
  | IP_addr a -> Net.Ipaddr.equal o.src a || Net.Ipaddr.equal o.dst a
  | IP_src_port p -> o.src_port = p
  | IP_dst_port p -> o.dst_port = p
  | IP_dscp d -> dscp = d
  | IP_protocol p -> o.protocol = p
  | IP_app c -> Classifier.classify o = c
  | IP_shim_present -> o.shim <> None
  | IP_key_setup -> Classifier.is_key_setup o
  | IP_looks_encrypted -> Classifier.looks_encrypted o
  | IP_entropy_at_least e -> Classifier.payload_entropy o.payload >= e
  | IP_size_at_least n -> o.size >= n
  | IP_rate_above (id, _) -> meter_above meters.(id) o
  | IP_not p -> not (eval meters ~dscp p o)
  | IP_and (a, b) -> eval meters ~dscp a o && eval meters ~dscp b o
  | IP_or (a, b) -> eval meters ~dscp a o || eval meters ~dscp b o

let verdict_of_iact = function
  | A_allow -> V_allow
  | A_drop -> V_drop
  | A_delay d -> V_delay d
  | A_throttle (i, s) -> V_throttle (i, s)
  | A_remark d -> V_remark d

(* ------------------------------------------------------------------ *)
(* Reference interpreter                                              *)

type interp = { il : lowered; imeters : meter array }

let interp_create p =
  let il = lower p in
  { il; imeters = Array.map meter_create il.meter_specs }

let interpret ?domain (i : interp) (o : Net.Observation.t) =
  Array.iter (fun m -> meter_update m o) i.imeters;
  let meters = i.imeters in
  let rec go ~dscp = function
    | L_nil -> V_forward
    | L_rule (p, a) ->
        if eval meters ~dscp p o then verdict_of_iact a else V_forward
    | L_union (a, b) -> (
        match go ~dscp a with V_forward -> go ~dscp b | v -> v)
    | L_restrict (p, q) ->
        if eval meters ~dscp p o then go ~dscp q else V_forward
    | L_in_domain (d, q) ->
        if domain = Some d then go ~dscp q else V_forward
    | L_seq (a, b) -> (
        match go ~dscp a with
        | V_forward -> go ~dscp b
        | V_remark d -> (
            (* The left remark re-binds DSCP for the right side; a
               terminal right verdict supersedes the remark, a right
               remark wins over it, and right no-match keeps it. *)
            match go ~dscp:d b with V_forward -> V_remark d | v -> v)
        | v -> v)
  in
  go ~dscp:o.dscp i.il.tree

(* ------------------------------------------------------------------ *)
(* Classifier-table compiler                                          *)

(* Substitute the remarked DSCP into a predicate: after a remark rule,
   the right-hand side of a [Seq] sees [d], so its [IP_dscp] atoms
   decide statically. The DSCP is the only re-bindable field, and
   [IP_dscp] the only atom reading it, so this substitution is exact. *)
let rec specialize ~dscp:d = function
  | IP_dscp n -> if n = d then IP_true else IP_false
  | IP_not p -> IP_not (specialize ~dscp:d p)
  | IP_and (a, b) -> IP_and (specialize ~dscp:d a, specialize ~dscp:d b)
  | IP_or (a, b) -> IP_or (specialize ~dscp:d a, specialize ~dscp:d b)
  | p -> p

let ip_and a b =
  match (a, b) with
  | IP_true, p | p, IP_true -> p
  | IP_false, _ | _, IP_false -> IP_false
  | _ -> IP_and (a, b)

let flatten ?domain (tree : lpolicy) : (ipred * iact) list =
  let rec rules = function
    | L_nil -> []
    | L_rule (p, a) -> [ (p, a) ]
    | L_union (a, b) -> rules a @ rules b
    | L_restrict (p, q) ->
        List.map (fun (q', act) -> (ip_and p q', act)) (rules q)
    | L_in_domain (d, q) -> if domain = Some d then rules q else []
    | L_seq (a, b) ->
        let rb = rules b in
        let expand (p, act) =
          match act with
          | A_remark d ->
              (* Cross-product: where the left remark rule matches, the
                 right table runs with its DSCP atoms specialized to
                 [d]; if none of its rules fire, the remark itself
                 stands (the fallback rule). *)
              List.map
                (fun (q, act2) -> (ip_and p (specialize ~dscp:d q), act2))
                rb
              @ [ (p, A_remark d) ]
          | _ -> [ (p, act) ]
        in
        List.concat_map expand (rules a) @ rb
  in
  rules tree

type compiled = {
  table : (ipred * iact) array;
  cmeters : meter array;
  cshapers : Shaper.t option array;
}

let compile ?engine ?domain p =
  let l = lower p in
  let table = Array.of_list (flatten ?domain l.tree) in
  let cshapers =
    Array.map
      (fun (s : throttle_spec) ->
        match engine with
        | None -> None
        | Some e ->
            Some
              (Shaper.create e ~rate_bps:s.rate_bps
                 ~burst_bytes:s.burst_bytes ~max_delay:s.max_delay_ns))
      l.shaper_specs
  in
  { table; cmeters = Array.map meter_create l.meter_specs; cshapers }

let rule_count c = Array.length c.table

let verdict c (o : Net.Observation.t) =
  Array.iter (fun m -> meter_update m o) c.cmeters;
  let n = Array.length c.table in
  let rec scan i =
    if i >= n then V_forward
    else
      let p, a = c.table.(i) in
      if eval c.cmeters ~dscp:o.dscp p o then verdict_of_iact a
      else scan (i + 1)
  in
  scan 0

let action_of c (o : Net.Observation.t) = function
  | V_forward | V_allow -> Net.Network.Forward
  | V_drop -> Net.Network.Drop
  | V_delay d -> Net.Network.Delay d
  | V_remark d -> Net.Network.Remark d
  | V_throttle (i, _) -> (
      match c.cshapers.(i) with
      | Some s -> Shaper.decide s ~size:o.size
      | None -> invalid_arg "Dsl.action_of: table compiled without ~engine")

let middleware c (o : Net.Observation.t) = action_of c o (verdict c o)

(* ------------------------------------------------------------------ *)
(* Per-packet consistent installation                                 *)

module Control = struct
  type slot = { sdomain : Net.Topology.domain_id; tabs : compiled array }

  type t = {
    net : Net.Network.t;
    consistent : bool;
    audit : bool;
    slots : slot list;
    lock : Mutex.t;
    stamps : (string, int) Hashtbl.t;
    logs : (string, Buffer.t) Hashtbl.t;
    mutable cur_epoch : int;
    mutable flip_at : int64;
    mutable n_verdicts : int;
    mutable n_hits : int;
    mutable n_mixed : int;
  }

  (* The wire identity an epoch stamp keys on. TTL and DSCP are
     excluded — every hop rewrites the former and remark rules the
     latter — so all hops of one packet agree on the key. Two packets
     carrying byte-identical frames share a stamp (and thus a fate);
     harnesses that need per-packet resolution make payloads unique. *)
  let packet_key (o : Net.Observation.t) =
    Printf.sprintf "%d|%d|%d|%d|%d|%s|%s" (Net.Ipaddr.to_int o.src)
      (Net.Ipaddr.to_int o.dst) o.protocol o.src_port o.dst_port
      (match o.shim with None -> "-" | Some s -> s)
      o.payload

  let epoch_at t at =
    if Int64.compare at t.flip_at >= 0 then t.cur_epoch else t.cur_epoch - 1

  let is_hit = function
    | V_forward | V_allow -> false
    | V_drop | V_delay _ | V_throttle _ | V_remark _ -> true

  let slot_middleware t slot (o : Net.Observation.t) =
    Mutex.lock t.lock;
    let live = epoch_at t o.observed_at in
    let key = packet_key o in
    let stamped =
      match Hashtbl.find_opt t.stamps key with
      | Some e -> e
      | None ->
          Hashtbl.replace t.stamps key live;
          live
    in
    let use = if t.consistent then stamped else live in
    if use <> stamped then t.n_mixed <- t.n_mixed + 1;
    (* Tables older than the previous epoch were evicted at swap time;
       swaps spaced wider than any packet lifetime keep this a no-op. *)
    let use = max (t.cur_epoch - 1) (min t.cur_epoch use) in
    let tab = slot.tabs.(use land 1) in
    let v = verdict tab o in
    t.n_verdicts <- t.n_verdicts + 1;
    if is_hit v then t.n_hits <- t.n_hits + 1;
    if t.audit then begin
      let buf =
        match Hashtbl.find_opt t.logs key with
        | Some b -> b
        | None ->
            let b = Buffer.create 32 in
            Hashtbl.replace t.logs key b;
            b
      in
      Buffer.add_string buf (verdict_to_string v);
      Buffer.add_char buf ';'
    end;
    let action = action_of tab o v in
    Mutex.unlock t.lock;
    action

  let install ?(consistent = true) ?(audit = false) net ~domains p =
    let engine = Net.Network.engine net in
    let slots =
      List.map
        (fun d ->
          let tab () = compile ~engine ~domain:d p in
          (* Both generation slots start as the same epoch-0 table. *)
          { sdomain = d; tabs = [| tab (); tab () |] })
        domains
    in
    let t =
      { net;
        consistent;
        audit;
        slots;
        lock = Mutex.create ();
        stamps = Hashtbl.create 256;
        logs = Hashtbl.create 64;
        cur_epoch = 0;
        flip_at = 0L;
        n_verdicts = 0;
        n_hits = 0;
        n_mixed = 0
      }
    in
    List.iter
      (fun slot ->
        Net.Network.add_middleware net slot.sdomain (slot_middleware t slot))
      slots;
    t

  let swap t ?at p =
    let engine = Net.Network.engine t.net in
    let now = Net.Engine.now engine in
    let at = match at with Some a -> a | None -> now in
    if Int64.compare at now < 0 then
      invalid_arg "Dsl.Control.swap: flip time is in the past";
    if Int64.compare t.flip_at now > 0 then
      invalid_arg "Dsl.Control.swap: previous swap has not taken effect yet";
    Mutex.lock t.lock;
    let next = t.cur_epoch + 1 in
    List.iter
      (fun slot ->
        slot.tabs.(next land 1) <- compile ~engine ~domain:slot.sdomain p)
      t.slots;
    (* Packets stamped before the now-previous epoch can no longer be
       judged consistently; their stamps (long dead if swaps are spaced
       past the in-flight horizon) are evicted rather than left to pin
       a retired table. *)
    Hashtbl.filter_map_inplace
      (fun _ e -> if e < t.cur_epoch then None else Some e)
      t.stamps;
    t.cur_epoch <- next;
    t.flip_at <- at;
    Mutex.unlock t.lock

  let epoch t = t.cur_epoch
  let verdicts t = t.n_verdicts
  let hits t = t.n_hits
  let mixed_epoch_verdicts t = t.n_mixed
  let stamped t = Hashtbl.length t.stamps

  let audit_digest t =
    Mutex.lock t.lock;
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.logs [] in
    let keys = List.sort String.compare keys in
    let buf = Buffer.create 1024 in
    List.iter
      (fun k ->
        Buffer.add_string buf k;
        Buffer.add_char buf '=';
        Buffer.add_buffer buf (Hashtbl.find t.logs k);
        Buffer.add_char buf '\n')
      keys;
    Mutex.unlock t.lock;
    Crypto.Sha256.digest_hex (Buffer.contents buf)
end
