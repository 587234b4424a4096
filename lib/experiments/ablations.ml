type a1 = { e3_ops : float; e65537_ops : float }
type a2 = { exposure_ms : float; rtt_ms : float; without_refresh_ms : float }
type a3 = { stateless_ops : float; cached_ops : float; overhead : float }

type a4 = {
  box_rsa_ops : int;
  box_offload_stamps : int;
  helper_rsa_ops : int;
  client_completed : bool;
}

type result = { a1 : a1; a2 : a2; a3 : a3; a4 : a4 }

(* A1 -------------------------------------------------------------- *)

let key_setup_ops ?min_time onetime =
  let master = Core.Master_key.of_seed ~seed:"a1" in
  let drbg = Crypto.Drbg.create ~seed:"a1" in
  let rng n = Crypto.Drbg.generate drbg n in
  let blob = Crypto.Rsa.public_to_string onetime.Crypto.Rsa.public in
  let src = Net.Ipaddr.of_string "10.1.0.2" in
  Table.measure ?min_time (fun () ->
      match
        Core.Datapath.key_setup_response ~master ~rng ~src ~pubkey_blob:blob
      with
      | Some _ -> ()
      | None -> failwith "A1: rejected")

let run_a1 ?min_time () =
  let e3 = Scenario.Keyring.onetime 0 in
  let e65537 =
    Crypto.Rsa.generate ~e:65537 ~bits:512 (Random.State.make [| 0x10001 |])
  in
  { e3_ops = key_setup_ops ?min_time e3;
    e65537_ops = key_setup_ops ?min_time e65537
  }

(* A2 -------------------------------------------------------------- *)

let run_a2 () =
  let world = Scenario.World.create () in
  let engine = world.Scenario.World.engine in
  let client =
    Scenario.World.make_client world world.Scenario.World.ann_host ~seed:"a2"
      ()
  in
  let reply_at = ref 0L in
  Core.Client.set_receiver client (fun ~peer:_ _ ->
      if Int64.equal !reply_at 0L then reply_at := Net.Engine.now engine);
  Core.Client.send_to_name client ~name:"google.example" ~app:"web" "ping";
  Scenario.World.run world;
  let c = Core.Client.counters client in
  let ms_of a b = Int64.to_float (Int64.sub a b) *. 1e-6 in
  { exposure_ms = ms_of c.last_refresh_at c.last_setup_at;
    rtt_ms = ms_of !reply_at c.last_setup_at;
    without_refresh_ms =
      Int64.to_float Core.Protocol.master_key_lifetime *. 1e-6
  }

(* A3 -------------------------------------------------------------- *)

let run_a3 ?min_time () =
  let master = Core.Master_key.of_seed ~seed:"a3" in
  let drbg = Crypto.Drbg.create ~seed:"a3" in
  let rng n = Crypto.Drbg.generate drbg n in
  let src = Net.Ipaddr.of_string "10.1.0.2" in
  let customer = Net.Ipaddr.of_string "10.2.0.3" in
  let nonce = rng Core.Protocol.nonce_len in
  let epoch, ks = Core.Master_key.derive_current master ~nonce ~src in
  let enc_addr, tag = Core.Datapath.blind ~ks ~epoch ~nonce customer in
  let stateless_ops =
    Table.measure ?min_time (fun () ->
        (* What the box actually does: recompute Ks, expand, unblind. *)
        match Core.Master_key.derive master ~epoch ~nonce ~src with
        | None -> failwith "A3: bad epoch"
        | Some ks ->
          (match Core.Datapath.unblind ~ks ~epoch ~nonce ~enc_addr ~tag with
           | Some _ -> ()
           | None -> failwith "A3: bad tag"))
  in
  (* A box that cached per-source state: the grant's session, made
     once. *)
  let session = Core.Datapath.make_session ~ks ~epoch ~nonce in
  let cached_ops =
    Table.measure ?min_time (fun () ->
        match Core.Datapath.unblind_session session ~enc_addr ~tag with
        | Some _ -> ()
        | None -> failwith "A3: bad tag")
  in
  { stateless_ops;
    cached_ops;
    overhead = (cached_ops -. stateless_ops) /. cached_ops
  }

(* A4 -------------------------------------------------------------- *)

let run_a4 () =
  let world = Scenario.World.create ~offload_via:"google" () in
  let client =
    Scenario.World.make_client world world.Scenario.World.ann_host ~seed:"a4"
      ()
  in
  let got = ref false in
  Core.Client.set_receiver client (fun ~peer:_ _ -> got := true);
  Core.Client.send_to_name client ~name:"yahoo.example" ~app:"web" "ping";
  Scenario.World.run world;
  let box_rsa, box_stamps =
    List.fold_left
      (fun (r, s) b ->
        let c = Core.Neutralizer.counters b in
        (r + c.key_setups, s + c.offloaded))
      (0, 0) world.Scenario.World.boxes
  in
  let helper = Scenario.World.site world "google" in
  { box_rsa_ops = box_rsa;
    box_offload_stamps = box_stamps;
    helper_rsa_ops =
      (Core.Server.counters helper.Scenario.World.server).offload_served;
    client_completed = (Core.Client.counters client).key_setups_completed > 0 && !got
  }

let run ?min_time () =
  { a1 = run_a1 ?min_time ();
    a2 = run_a2 ();
    a3 = run_a3 ?min_time ();
    a4 = run_a4 ()
  }

let print r =
  Table.print ~title:"A1: key-setup throughput vs public exponent"
    ~header:[ "exponent"; "ops/s" ]
    [ [ "e = 3 (paper's choice)"; Table.kops r.a1.e3_ops ];
      [ "e = 65537"; Table.kops r.a1.e65537_ops ]
    ];
  Table.print ~title:"A2: weak-key exposure window (refresh on first packet)"
    ~header:[ ""; "duration" ]
    [ [ "measured exposure (grant -> rollover)";
        Printf.sprintf "%.1f ms" r.a2.exposure_ms
      ];
      [ "end-to-end RTT on the same path"; Printf.sprintf "%.1f ms" r.a2.rtt_ms ];
      [ "without refresh (master-key lifetime)";
        Printf.sprintf "%.0f ms" r.a2.without_refresh_ms
      ]
    ];
  Table.print ~title:"A3: the cost of statelessness on the data path"
    ~header:[ "variant"; "ops/s" ]
    [ [ "stateless (recompute Ks + schedule per packet)";
        Table.kops r.a3.stateless_ops
      ];
      [ "hypothetical cached per-source state"; Table.kops r.a3.cached_ops ];
      [ Printf.sprintf "overhead: %s of the cached rate"
          (Table.pct r.a3.overhead);
        ""
      ]
    ];
  Table.print ~title:"A4: RSA offload to a willing customer (§3.2)"
    ~header:[ ""; "count" ]
    [ [ "RSA encryptions at the box"; string_of_int r.a4.box_rsa_ops ];
      [ "offload stamps at the box"; string_of_int r.a4.box_offload_stamps ];
      [ "RSA encryptions at the helper (google)";
        string_of_int r.a4.helper_rsa_ops
      ];
      [ "client completed setup + exchange";
        string_of_bool r.a4.client_completed
      ]
    ]
