type result = {
  ops_per_sec : float;
  sources_per_hour : float;
  paper_ops_per_sec : float;
  paper_sources_per_hour : float;
}

let processing_op () =
  let master = Core.Master_key.of_seed ~seed:"e1" in
  let drbg = Crypto.Drbg.create ~seed:"e1" in
  let rng n = Crypto.Drbg.generate drbg n in
  let onetime = Scenario.Keyring.onetime 0 in
  let pubkey_blob = Crypto.Rsa.public_to_string onetime.Crypto.Rsa.public in
  let src = Net.Ipaddr.of_string "10.1.0.2" in
  fun () ->
    match
      Core.Datapath.key_setup_response ~master ~rng ~src ~pubkey_blob
    with
    | Some _ -> ()
    | None -> failwith "E1: key setup rejected"

(* Deterministic observation table: 16 key-setup responses from a fixed
   master key and DRBG, one row per request with the response shim's
   digest and the granted (epoch, nonce, Ks). No wall clock anywhere,
   so the rendered rows are byte-identical on every run and every
   machine — test_experiments pins their SHA-256. *)
let golden_rows () =
  let master = Core.Master_key.of_seed ~seed:"e1-golden" in
  let drbg = Crypto.Drbg.create ~seed:"e1-golden" in
  let rng n = Crypto.Drbg.generate drbg n in
  Scenario.Keyring.prepare ~e2e:[] ~onetime:(List.init 8 Fun.id);
  List.map
    (fun i ->
      let onetime = Scenario.Keyring.onetime (i mod 8) in
      let pubkey_blob = Crypto.Rsa.public_to_string onetime.Crypto.Rsa.public in
      let src = Net.Ipaddr.of_string (Printf.sprintf "10.1.0.%d" (2 + i)) in
      match Core.Datapath.key_setup_response ~master ~rng ~src ~pubkey_blob with
      | Some (shim, (epoch, nonce, ks)) ->
        [ string_of_int i;
          string_of_int epoch;
          Crypto.Sha256.digest_hex shim;
          Crypto.Bytes_util.to_hex nonce;
          Crypto.Bytes_util.to_hex ks
        ]
      | None -> [ string_of_int i; "rejected" ])
    (List.init 16 Fun.id)

let run ?min_time () =
  let ops_per_sec = Table.measure ?min_time (processing_op ()) in
  { ops_per_sec;
    sources_per_hour = ops_per_sec *. 3600.0;
    paper_ops_per_sec = 24_400.0;
    paper_sources_per_hour = 88e6
  }

let print r =
  Table.print ~title:"E1: key-setup throughput (one RSA-512 e=3 encryption per request)"
    ~header:[ ""; "ops/s"; "sources/hour (1h master key)" ]
    [ [ "paper (Click + OpenSSL, Opteron 2.6GHz)";
        Table.kops r.paper_ops_per_sec;
        Table.kops r.paper_sources_per_hour
      ];
      [ "this repo (pure OCaml)";
        Table.kops r.ops_per_sec;
        Table.kops r.sources_per_hour
      ];
      [ "ratio (ours/paper)";
        Table.f2 (r.ops_per_sec /. r.paper_ops_per_sec);
        Table.f2 (r.sources_per_hour /. r.paper_sources_per_hour)
      ]
    ]
;
  Table.print_obs ~title:"E1 obs: crypto + datapath activity"
    ~prefixes:[ "crypto.rsa."; "core.datapath." ]
    ()
