type side = {
  scheme : string;
  pubkey_ops_network : int;
  pubkey_ops_client : int;
  state_entries : int;
  sym_ops_per_packet : float;
}

type result = {
  sources : int;
  flows_per_source : int;
  packets_per_flow : int;
  neutralizer : side;
  onion : side;
}

let run ?(sources = 50) ?(flows_per_source = 4) ?(packets_per_flow = 20) () =
  let total_packets = sources * flows_per_source * packets_per_flow in
  (* --- onion side: one 3-hop circuit per flow, real module runs --- *)
  Scenario.Keyring.prepare ~e2e:[ 10; 11; 12 ]
    ~onetime:(List.init (min sources 16) Fun.id);
  let st = Random.State.make [| 0xe4 |] in
  let relays =
    List.init 3 (fun i ->
        Baseline.Onion.create_relay ~key:(Scenario.Keyring.e2e (10 + i)) ~id:i
          st)
  in
  let drbg = Crypto.Drbg.create ~seed:"e4" in
  let rng n = Crypto.Drbg.generate drbg n in
  let circuits = ref [] in
  let client_ops = ref 0 in
  for _ = 1 to sources * flows_per_source do
    let c = Baseline.Onion.build_circuit ~rng ~path:relays in
    client_ops := !client_ops + Baseline.Onion.client_pubkey_ops c;
    circuits := c :: !circuits
  done;
  let payload = String.make 64 'p' in
  List.iter
    (fun c ->
      for _ = 1 to packets_per_flow do
        match Baseline.Onion.transit c payload with
        | Some _ -> ()
        | None -> failwith "E4: onion transit failed"
      done)
    !circuits;
  let onion =
    { scheme = "onion (3-hop, per-flow circuits)";
      pubkey_ops_network =
        List.fold_left
          (fun acc r -> acc + Baseline.Onion.relay_pubkey_ops r)
          0 relays;
      pubkey_ops_client = !client_ops;
      state_entries =
        List.fold_left
          (fun acc r -> acc + Baseline.Onion.relay_state_entries r)
          0 relays;
      sym_ops_per_packet =
        float_of_int
          (List.fold_left
             (fun acc r -> acc + Baseline.Onion.relay_symmetric_ops r)
             0 relays)
        /. float_of_int total_packets
    }
  in
  (* --- neutralizer side: one key setup per source, stateless data --- *)
  let master = Core.Master_key.of_seed ~seed:"e4" in
  let pubkey_network = ref 0 in
  for i = 0 to sources - 1 do
    let onetime = Scenario.Keyring.onetime (i mod 16) in
    let src = Net.Ipaddr.of_int (0x0a010000 lor i) in
    match
      Core.Datapath.key_setup_response ~master ~rng ~src
        ~pubkey_blob:(Crypto.Rsa.public_to_string onetime.Crypto.Rsa.public)
    with
    | Some _ -> incr pubkey_network
    | None -> failwith "E4: key setup failed"
  done;
  let neutralizer =
    { scheme = "neutralizer (this paper)";
      pubkey_ops_network = !pubkey_network;
      (* each source decrypts one response with its one-time key *)
      pubkey_ops_client = sources;
      state_entries = 0;
      (* per data packet: 2 CMAC blocks (Ks derive) + mask + tag *)
      sym_ops_per_packet = 4.0
    }
  in
  { sources; flows_per_source; packets_per_flow; neutralizer; onion }

let print r =
  let row s =
    [ s.scheme;
      string_of_int s.pubkey_ops_network;
      string_of_int s.pubkey_ops_client;
      string_of_int s.state_entries;
      Table.f2 s.sym_ops_per_packet
    ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E4: vs anonymous routing (%d sources x %d flows x %d packets)"
         r.sources r.flows_per_source r.packets_per_flow)
    ~header:
      [ "scheme"; "pubkey ops (network)"; "pubkey ops (client)";
        "state entries"; "sym ops/pkt (network)"
      ]
    [ row r.neutralizer; row r.onion ]
