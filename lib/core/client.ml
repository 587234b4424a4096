type config = {
  dns_server : Net.Ipaddr.t option;
  dns_encrypt : Crypto.Rsa.public option;
  dns_verify : Crypto.Rsa.public option;
  onetime_keygen : unit -> Crypto.Rsa.private_key;
  strategy : Multihome.strategy;
  blackhole_threshold : int;
}

type counters = {
  mutable dns_lookups : int;
  mutable key_setups_started : int;
  mutable key_setups_completed : int;
  mutable key_setups_failed : int;
  mutable data_sent : int;
  mutable data_received : int;
  mutable refreshes_applied : int;
  mutable reverse_accepted : int;
  mutable errors : int;
  mutable last_setup_at : int64;
  mutable last_refresh_at : int64;
}

type pending_setup = {
  onetime : Crypto.Rsa.private_key;
  mutable waiters : (Keytab.grant option -> unit) list;
  mutable timer : Net.Engine.handle option;
}

type t = {
  host : Net.Host.t;
  drbg : Crypto.Drbg.t;
  keypair : Crypto.Rsa.private_key option;
  config : config;
  keytab : Keytab.t;
  sessions : Session.table;
  mh : Multihome.t;
  site_cache : (string, Dns.Resolver.site_info) Hashtbl.t;
  pending_dns :
    (string, (Dns.Resolver.site_info option -> unit) list) Hashtbl.t;
  pending_setups : (Net.Ipaddr.t, pending_setup) Hashtbl.t;
  needs_refresh : (Net.Ipaddr.t, bool) Hashtbl.t;
  outstanding : (Net.Ipaddr.t, int) Hashtbl.t;
      (* data packets sent per neutralizer since anything was last heard
         through it; crossing blackhole_threshold triggers re-homing *)
  gate : Version_gate.t;
  mutable receiver : peer:Net.Ipaddr.t -> string -> unit;
  ctrs : counters;
}

let counters t = t.ctrs
let keytab t = t.keytab
let sessions t = t.sessions
let host t = t.host
let rng t n = Crypto.Drbg.generate t.drbg n
let engine t = Net.Network.engine (Net.Host.network t.host)
let now t = Net.Engine.now (engine t)
let set_receiver t f = t.receiver <- f

(* A key-setup request is retransmitted after 250 ms of silence, three
   sends in all, and a grant is renewed once it is 54 simulated minutes
   old: inside the master key's hour (§4: "a source outside a
   neutralizer's domain at most needs to send a key request once an
   hour"). *)
let key_setup_timeout = 250_000_000L
let key_setup_attempts = 3
let grant_max_age = 3_240_000_000_000L

let default_config ~rng =
  let keygen_state =
    (* One stdlib PRNG per config, seeded from the caller's rng. *)
    lazy
      (Random.State.make
         (Array.init 8 (fun _ -> Crypto.Bytes_util.get_u32 (rng 4) 0)))
  in
  { dns_server = None;
    dns_encrypt = None;
    dns_verify = None;
    onetime_keygen =
      (fun () ->
        Crypto.Rsa.generate ~e:Protocol.rsa_public_exponent
          ~bits:Protocol.onetime_rsa_bits (Lazy.force keygen_state));
    strategy = Multihome.Round_robin;
    blackhole_threshold = 25
  }

let obs t = Net.Engine.obs (engine t)

let bump ?(labels = []) t name =
  Obs.Counter.inc (Obs.Registry.counter (obs t) ~labels ("core.client." ^ name))

let fail t on_error msg =
  t.ctrs.errors <- t.ctrs.errors + 1;
  match on_error with Some f -> f msg | None -> ()

(* ---- Key setup (§3.2) ---- *)

let finish_setup t ~neutralizer result =
  match Hashtbl.find_opt t.pending_setups neutralizer with
  | None -> ()
  | Some pending ->
    Hashtbl.remove t.pending_setups neutralizer;
    (match pending.timer with Some h -> Net.Engine.cancel h | None -> ());
    List.iter (fun k -> k result) (List.rev pending.waiters)

let rec send_setup_packet t ~neutralizer ~pending ~attempts =
  let pubkey = Crypto.Rsa.public_to_string pending.onetime.Crypto.Rsa.public in
  (* Deadline propagation: the box learns when this attempt's reply
     stops being useful and can shed the request instead of serving it
     late (or not at all) under overload. *)
  let deadline = Int64.add (now t) key_setup_timeout in
  let shim = Shim.encode (Shim.Key_setup_request { pubkey; deadline }) in
  Net.Host.send t.host
    (Net.Packet.make ~protocol:Net.Packet.Shim ~shim
       ~src:(Net.Host.addr t.host) ~dst:neutralizer ~sent_at:(now t)
       ~app:"key-setup" "");
  let give_up () =
    t.ctrs.key_setups_failed <- t.ctrs.key_setups_failed + 1;
    bump t "key_setups_failed";
    bump t "rehomes" ~labels:[ ("reason", "setup-timeout") ];
    Multihome.mark_failed t.mh neutralizer ~now:(now t);
    finish_setup t ~neutralizer None
  in
  let still_current () =
    match Hashtbl.find_opt t.pending_setups neutralizer with
    | Some still -> still == pending
    | None -> false
  in
  let timer =
    Net.Engine.schedule (engine t) ~delay:key_setup_timeout (fun () ->
        if still_current () then
          if attempts <= 1 then give_up ()
          else begin
            bump t "setup_retries";
            send_setup_packet t ~neutralizer ~pending ~attempts:(attempts - 1)
          end)
  in
  pending.timer <- Some timer

let start_setup t ~neutralizer =
  let pending =
    { onetime = t.config.onetime_keygen (); waiters = []; timer = None }
  in
  Hashtbl.replace t.pending_setups neutralizer pending;
  t.ctrs.key_setups_started <- t.ctrs.key_setups_started + 1;
  send_setup_packet t ~neutralizer ~pending ~attempts:key_setup_attempts

let ensure_grant t ~neutralizer k =
  let fresh_enough g =
    Int64.compare (Int64.sub (now t) g.Keytab.obtained_at) grant_max_age < 0
  in
  match Keytab.current t.keytab ~neutralizer with
  | Some g when fresh_enough g -> k (Some g)
  | Some _ | None ->
    (match Hashtbl.find_opt t.pending_setups neutralizer with
     | Some pending -> pending.waiters <- k :: pending.waiters
     | None ->
       start_setup t ~neutralizer;
       (match Hashtbl.find_opt t.pending_setups neutralizer with
        | Some pending -> pending.waiters <- k :: pending.waiters
        | None -> k None))

(* ---- Data path ---- *)

let send_data t ~neutralizer ~grant ~dest ~payload ~dscp ~app ~flow_id ~seq =
  let key_request =
    Option.value ~default:false (Hashtbl.find_opt t.needs_refresh neutralizer)
  in
  (* Per-grant session: key schedule and mask slice were expanded once
     when the grant was installed, not per packet. *)
  let enc_addr, tag = Datapath.blind_session (Keytab.session t.keytab grant) dest in
  let shim =
    Shim.encode
      (Shim.Data
         { epoch = grant.epoch;
           nonce = grant.nonce;
           enc_addr;
           tag;
           key_request;
           from_customer = false;
           refresh = None
         })
  in
  t.ctrs.data_sent <- t.ctrs.data_sent + 1;
  (* Trial-and-error liveness (§3.5): count unanswered sends; a silent
     neutralizer loses its grant and is avoided for the backoff. *)
  let pending =
    1 + Option.value ~default:0 (Hashtbl.find_opt t.outstanding neutralizer)
  in
  Hashtbl.replace t.outstanding neutralizer pending;
  if pending = t.config.blackhole_threshold then begin
    bump t "rehomes" ~labels:[ ("reason", "blackhole") ];
    Keytab.invalidate t.keytab ~neutralizer;
    Multihome.mark_failed t.mh neutralizer ~now:(now t);
    Hashtbl.replace t.outstanding neutralizer 0
  end;
  Net.Host.send t.host
    (Net.Packet.make ~protocol:Net.Packet.Shim ~shim
       ~src:(Net.Host.addr t.host) ~dst:neutralizer ~dscp ~flow_id ~seq
       ~sent_at:(now t) ~app payload)

let rec send_to t ~dest ~peer_key ~neutralizers ?(dscp = 0) ?(app = "")
    ?(flow_id = 0) ?(seq = 0) ?on_error payload =
  match Multihome.choose t.mh ~now:(now t) neutralizers with
  | None -> fail t on_error "no neutralizer available"
  | Some neutralizer ->
    ensure_grant t ~neutralizer (function
      | None ->
        (* Trial and error (§3.5): retry through the remaining providers. *)
        let rest = List.filter (fun a -> not (Net.Ipaddr.equal a neutralizer)) neutralizers in
        if rest = [] then fail t on_error "key setup failed"
        else
          send_to t ~dest ~peer_key ~neutralizers:rest ~dscp ~app ~flow_id
            ~seq ?on_error payload
      | Some grant ->
        let session_payload =
          match Session.find_by_peer t.sessions ~peer:dest with
          | Some session ->
            Session.data_payload ~rng:(rng t) session (Session.plain payload)
          | None ->
            let secret = rng t 32 in
            let keys = Crypto.Seal.keys secret in
            let _session =
              Session.register t.sessions ~secret ~keys ~peer:dest ~now:(now t)
            in
            Session.initial_payload ~rng:(rng t) ~peer_key ~secret ~keys
              (Session.plain payload)
        in
        send_data t ~neutralizer ~grant ~dest ~payload:session_payload ~dscp
          ~app ~flow_id ~seq)

let send_to_name t ~name ?(dscp = 0) ?(app = "") ?(flow_id = 0) ?(seq = 0)
    ?on_error payload =
  let proceed (info : Dns.Resolver.site_info) =
    match (info.addrs, info.key) with
    | dest :: _, Some peer_key ->
      send_to t ~dest ~peer_key ~neutralizers:info.neutralizers ~dscp ~app
        ~flow_id ~seq ?on_error payload
    | _ -> fail t on_error ("incomplete DNS records for " ^ name)
  in
  match Hashtbl.find_opt t.site_cache name with
  | Some info -> proceed info
  | None ->
    (match t.config.dns_server with
     | None -> fail t on_error "no DNS server configured"
     | Some server ->
       let waiter = function
         | Some info -> proceed info
         | None ->
           fail t on_error ("DNS bootstrap failed for " ^ name)
       in
       (match Hashtbl.find_opt t.pending_dns name with
        | Some waiters ->
          (* A lookup for this name is already in flight: coalesce. *)
          Hashtbl.replace t.pending_dns name (waiter :: waiters)
        | None ->
          Hashtbl.replace t.pending_dns name [ waiter ];
          t.ctrs.dns_lookups <- t.ctrs.dns_lookups + 1;
          Dns.Resolver.bootstrap t.host ~server
            ?encrypt_to:t.config.dns_encrypt ~rng:(rng t)
            ?verify:t.config.dns_verify ~name (fun result ->
              let waiters =
                Option.value ~default:[]
                  (Hashtbl.find_opt t.pending_dns name)
              in
              Hashtbl.remove t.pending_dns name;
              let info =
                match result with
                | Error _ -> None
                | Ok info ->
                  Hashtbl.replace t.site_cache name info;
                  Some info
              in
              List.iter (fun k -> k info) (List.rev waiters))))

(* ---- Receive path ---- *)

let apply_refresh t ~neutralizer (r : Shim.refresh) =
  Keytab.put t.keytab ~neutralizer
    { Keytab.epoch = r.r_epoch;
      nonce = r.r_nonce;
      key = r.r_key;
      obtained_at = now t
    };
  Hashtbl.replace t.needs_refresh neutralizer false;
  t.ctrs.refreshes_applied <- t.ctrs.refreshes_applied + 1;
  t.ctrs.last_refresh_at <- now t

let handle_key_setup_response t (p : Net.Packet.t) ~rsa_ct =
  let neutralizer = p.src in
  match Hashtbl.find_opt t.pending_setups neutralizer with
  | None -> ()
  | Some pending ->
    (match
       Datapath.open_key_setup_response ~onetime:pending.onetime ~rsa_ct
     with
     | None -> ()
     | Some (epoch, nonce, key) ->
       let grant = { Keytab.epoch; nonce; key; obtained_at = now t } in
       Keytab.put t.keytab ~neutralizer grant;
       (* The grant was protected only by the weak one-time key: ask for a
          rollover on the first data packet (§3.2). *)
       Hashtbl.replace t.needs_refresh neutralizer true;
       t.ctrs.key_setups_completed <- t.ctrs.key_setups_completed + 1;
       t.ctrs.last_setup_at <- now t;
       (* The box answered: clear its failure streak so the next
          incident starts from the base backoff, not the grown one. *)
       Multihome.note_success t.mh neutralizer;
       finish_setup t ~neutralizer (Some grant))

let handle_incoming_data t (p : Net.Packet.t) (d : Shim.data) =
  let neutralizer = p.src in
  let deliver session (inner : Session.inner) =
    (match inner.refresh with
     | Some r -> apply_refresh t ~neutralizer r
     | None -> ());
    t.ctrs.data_received <- t.ctrs.data_received + 1;
    t.receiver ~peer:session.Session.peer inner.app
  in
  match Session.open_data t.sessions ~now:(now t) p.payload with
  | Some (session, inner) -> deliver session inner
  | None ->
    (* Possibly a reverse-direction first packet (§3.3): sealed to our
       long-term key, carrying the grant that unblinds the sender. *)
    (match t.keypair with
     | None -> ()
     | Some private_key ->
       (match Session.accept_initial ~private_key p.payload with
        | None -> ()
        | Some (secret, keys, inner) ->
          (match inner.reverse_key with
           | None -> ()
           | Some (epoch, nonce, key) ->
             let grant = { Keytab.epoch; nonce; key; obtained_at = now t } in
             Keytab.put t.keytab ~neutralizer grant;
             Hashtbl.replace t.needs_refresh neutralizer false;
             (match
                Datapath.unblind_session (Keytab.session t.keytab grant)
                  ~enc_addr:d.enc_addr ~tag:d.tag
              with
              | None -> ()
              | Some peer ->
                let session =
                  Session.register t.sessions ~secret ~keys ~peer ~now:(now t)
                in
                t.ctrs.reverse_accepted <- t.ctrs.reverse_accepted + 1;
                deliver session inner))))

let handle_stale_grant t (p : Net.Packet.t) ~current_epoch =
  let neutralizer = p.src in
  match Keytab.current t.keytab ~neutralizer with
  | Some g when g.Keytab.epoch <> current_epoch land 0xff ->
    (* Verified against our own state: the grant really is from another
       epoch. Drop it and re-key proactively so in-flight application
       traffic resumes after one setup RTT. *)
    Keytab.invalidate t.keytab ~neutralizer;
    if not (Hashtbl.mem t.pending_setups neutralizer) then
      start_setup t ~neutralizer
  | Some _ | None -> ()

let handle_shim_decoded t (p : Net.Packet.t) shim =
  (match shim with
     | Shim.Key_setup_response { rsa_ct } ->
       handle_key_setup_response t p ~rsa_ct
     | Shim.Stale_grant { current_epoch } ->
       handle_stale_grant t p ~current_epoch
     | Shim.Data d when d.from_customer -> handle_incoming_data t p d
     | Shim.Data _ | Shim.Key_setup_request _ | Shim.Return _
     | Shim.Reverse_key_request _ | Shim.Reverse_key_response _
     | Shim.Qos_address_request _ | Shim.Qos_address_response _
     | Shim.Offload _ -> ())

(* A frame the strict decoder (or the downgrade gate) refused. These
   were silently ignored before the protocol was versioned; now every
   one is visible as core.proto.reject.client{reason} plus the client's
   coarse error count. *)
let proto_reject t label =
  t.ctrs.errors <- t.ctrs.errors + 1;
  Obs.Counter.inc
    (Obs.Registry.counter (obs t)
       ~labels:[ ("reason", label) ]
       "core.proto.reject.client")

let handle_shim t (p : Net.Packet.t) =
  Hashtbl.replace t.outstanding p.src 0;
  match Version_gate.receive t.gate ~peer:p.src p.shim with
  | Error label -> proto_reject t label
  | Ok shim -> (
    try handle_shim_decoded t p shim
    with _ ->
      (* A corrupted-but-decodable shim (fault injection flips wire
         bits) must never unwind into the network layer: count it as a
         malformed packet and move on. *)
      t.ctrs.errors <- t.ctrs.errors + 1;
      bump t "handler_exceptions")

let create host ?keypair ?config ~seed () =
  let drbg = Crypto.Drbg.create ~seed in
  let config =
    match config with
    | Some c -> c
    | None -> default_config ~rng:(fun n -> Crypto.Drbg.generate drbg n)
  in
  let t =
    { host;
      drbg;
      keypair;
      config;
      keytab = Keytab.create ();
      sessions = Session.create_table ();
      mh =
        Multihome.create ~strategy:config.strategy
          ~rng:(fun n -> Crypto.Drbg.generate drbg n)
          ();
      site_cache = Hashtbl.create 8;
      pending_dns = Hashtbl.create 4;
      pending_setups = Hashtbl.create 4;
      needs_refresh = Hashtbl.create 4;
      outstanding = Hashtbl.create 4;
      gate = Version_gate.create ();
      receiver = (fun ~peer:_ _ -> ());
      ctrs =
        { dns_lookups = 0;
          key_setups_started = 0;
          key_setups_completed = 0;
          key_setups_failed = 0;
          data_sent = 0;
          data_received = 0;
          refreshes_applied = 0;
          reverse_accepted = 0;
          errors = 0;
          last_setup_at = 0L;
          last_refresh_at = 0L
        }
    }
  in
  Net.Host.on_shim host (fun _host p -> handle_shim t p);
  t
