(* Seeded generators over the policy grammar and the observation space.

   Built on Fault.Prng (SplitMix64) rather than qcheck so that library
   code — the E15 regime sweep, [netneutral fuzzpolicy] — can draw the
   exact same policies the qcheck suites shrink over: POLICY_SEED plus
   an index is the whole reproduction recipe. *)

module Prng = Fault.Prng

let pick rng arr = arr.(Prng.int rng (Array.length arr))

(* Values stay on coarse grids. Entropy thresholds in particular avoid
   the ~7.0-7.3 bits/byte band where a random ~160-byte ciphertext
   payload actually lands: a razor-edge threshold would flip verdicts
   on binomial noise and no differential invariant could hold. *)

let dscp_values = [| 0; 8; 34; 46 |]
let port_values = [| 0; 53; 80; 443; 1935; 5060; 8080; 9; 40000 |]
let protocol_values = [| 6; 17; 253; 1 |]
let entropy_grid = [| 1.0; 3.0; 5.0; 6.5; 7.9 |]
let size_grid = [| 1; 64; 112; 200; 600; 1200 |]
let delay_grid = [| 1_000_000L; 5_000_000L; 20_000_000L; 50_000_000L |]
let rate_bps_grid = [| 32_000; 128_000; 1_000_000; 10_000_000 |]
let burst_grid = [| 2_048; 16_384 |]
let max_delay_grid = [| 50_000_000L; 500_000_000L |]
let meter_bps_grid = [| 8_000; 64_000; 512_000; 4_000_000 |]
let window_grid = [| 1_000_000L; 10_000_000L; 100_000_000L |]

let prefixes =
  lazy
    (Array.map Net.Ipaddr.Prefix.of_string
       [| "10.1.0.0/16"; (* att *)
          "10.2.0.0/16"; (* cogent *)
          "10.3.0.0/16"; (* planetlab *)
          "10.4.0.0/16"; (* verizon *)
          "10.0.0.0/8";
          "10.1.0.0/24";
          "192.168.0.0/16"
       |])

let addr_pool =
  lazy
    (let fixed =
       [ "10.2.255.1" (* the Figure-1 anycast neutralizer address *) ]
     in
     let carved =
       Array.to_list
         (Array.concat
            (List.map
               (fun p ->
                 Array.init 4 (fun i ->
                     Net.Ipaddr.Prefix.nth
                       (Net.Ipaddr.Prefix.of_string p)
                       (i + 1)))
               [ "10.1.0.0/16"; "10.2.0.0/16"; "10.3.0.0/16"; "10.4.0.0/16" ]))
     in
     Array.of_list (List.map Net.Ipaddr.of_string fixed @ carved))

let app_classes =
  Classifier.
    [| Voip; Web; Video; Dns_query; Key_setup; Encrypted; Other |]

let gen_addr rng = pick rng (Lazy.force addr_pool)
let gen_prefix rng = pick rng (Lazy.force prefixes)

let gen_throttle_spec rng : Dsl.throttle_spec =
  { rate_bps = pick rng rate_bps_grid;
    burst_bytes = pick rng burst_grid;
    max_delay_ns = pick rng max_delay_grid
  }

let gen_rate_spec rng : Dsl.rate_spec =
  { bps = pick rng meter_bps_grid; window_ns = pick rng window_grid }

let rec gen_pred ?(stateless = false) rng ~depth : Dsl.pred =
  let atom () : Dsl.pred =
    match Prng.int rng (if stateless then 15 else 16) with
    | 0 -> True
    | 1 -> False
    | 2 -> Src_in (gen_prefix rng)
    | 3 -> Dst_in (gen_prefix rng)
    | 4 -> Addr (gen_addr rng)
    | 5 -> Src_port (pick rng port_values)
    | 6 -> Dst_port (pick rng port_values)
    | 7 -> Dscp (pick rng dscp_values)
    | 8 -> Protocol (pick rng protocol_values)
    | 9 -> App (pick rng app_classes)
    | 10 -> Shim_present
    | 11 -> Key_setup
    | 12 -> Looks_encrypted
    | 13 -> Entropy_at_least (pick rng entropy_grid)
    | 14 -> Size_at_least (pick rng size_grid)
    | _ -> Rate_above (gen_rate_spec rng)
  in
  if depth <= 0 then atom ()
  else
    match Prng.int rng 10 with
    | 0 | 1 -> Not (gen_pred ~stateless rng ~depth:(depth - 1))
    | 2 | 3 ->
        let a = gen_pred ~stateless rng ~depth:(depth - 1) in
        And (a, gen_pred ~stateless rng ~depth:(depth - 1))
    | 4 | 5 ->
        let a = gen_pred ~stateless rng ~depth:(depth - 1) in
        Or (a, gen_pred ~stateless rng ~depth:(depth - 1))
    | _ -> atom ()

let gen_act ?(stateless = false) rng : Dsl.act =
  match Prng.int rng (if stateless then 5 else 6) with
  | 0 -> Allow
  | 1 -> Drop
  | 2 -> Delay (pick rng delay_grid)
  | 3 -> Set_dscp (pick rng dscp_values)
  | 4 -> Deprioritize
  | _ -> Throttle (gen_throttle_spec rng)

let gen_policy ?(max_depth = 4) ?(stateless = false) ?(domains = [| 0 |]) rng :
    Dsl.policy =
  let rule () : Dsl.policy =
    Rule (gen_pred ~stateless rng ~depth:2, gen_act ~stateless rng)
  in
  let rec go depth : Dsl.policy =
    if depth <= 0 then rule ()
    else
      match Prng.int rng 12 with
      | 0 -> Nil
      | 1 | 2 | 3 | 4 -> rule ()
      | 5 | 6 | 7 ->
          let a = go (depth - 1) in
          Union (a, go (depth - 1))
      | 8 ->
          (* Seq cross-products in the compiler; keep its operands
             shallow so generated tables stay small. *)
          let a = go (min 1 (depth - 1)) in
          Seq (a, go (min 1 (depth - 1)))
      | 9 | 10 ->
          Restrict (gen_pred ~stateless rng ~depth:2, go (depth - 1))
      | _ -> In_domain (pick rng domains, go (depth - 1))
  in
  go max_depth

(* ------------------------------------------------------------------ *)
(* Observations                                                       *)

let random_bytes rng n =
  String.init n (fun _ -> Char.chr (Prng.int rng 256))

let gen_payload rng =
  match Prng.int rng 8 with
  | 0 -> ""
  | 1 -> String.make 1 'x'
  | 2 -> String.make (pick rng [| 40; 200 |]) 'A'
  | 3 -> "INVITE sip:ben@verizon.example SIP/2.0\r\nVia: SIP/2.0/UDP"
  | 4 -> "GET /index.html HTTP/1.1\r\nHost: google.example\r\n\r\n"
  | 5 -> random_bytes rng 64
  | 6 -> random_bytes rng 160
  | _ -> random_bytes rng (pick rng [| 600; 1400 |])

let gen_shim rng =
  (* Only the first byte (the kind tag) matters to the classifier; kinds
     0 and 1 are the key-setup exchange it is allowed to recognise. *)
  match Prng.int rng 4 with
  | 0 -> None
  | 1 -> Some (String.make 1 '\000' ^ random_bytes rng 19)
  | 2 -> Some (String.make 1 '\001' ^ random_bytes rng 19)
  | _ -> Some (String.make 1 '\002' ^ random_bytes rng 19)

let gen_obs rng ~at : Net.Observation.t =
  (* Observation.t is private (threat-model enforcement); the generated
     wire view goes through a real packet like everything else. *)
  let protocol : Net.Packet.protocol =
    match pick rng protocol_values with
    | 6 -> Tcp
    | 253 -> Shim
    | 1 -> Icmp
    | _ -> Udp
  in
  let shim =
    if protocol = Shim then gen_shim rng else None
  in
  let p =
    Net.Packet.make ~protocol ?shim
      ~dscp:(pick rng dscp_values)
      ~ttl:(1 + Prng.int rng 64)
      ~src_port:(pick rng port_values)
      ~dst_port:(pick rng port_values)
      ~src:(gen_addr rng) ~dst:(gen_addr rng) (gen_payload rng)
  in
  Net.Observation.of_packet ~now:at p
