type site = {
  site_name : string;
  node : Net.Topology.node;
  host : Net.Host.t;
  server : Core.Server.t;
  key : Crypto.Rsa.private_key;
}

type t = {
  topo : Net.Topology.t;
  engine : Net.Engine.t;
  net : Net.Network.t;
  att : Net.Topology.domain_id;
  verizon : Net.Topology.domain_id;
  cogent : Net.Topology.domain_id;
  planetlab : Net.Topology.domain_id;
  ann : Net.Topology.node;
  ann_host : Net.Host.t;
  ben : Net.Topology.node;
  ben_host : Net.Host.t;
  att_router : Net.Topology.node;
  verizon_router : Net.Topology.node;
  anycast : Net.Ipaddr.t;
  master : Core.Master_key.t;
  boxes : Core.Neutralizer.t list;
  resolver_addr : Net.Ipaddr.t;
  resolver_key : Crypto.Rsa.private_key;
  zone : Dns.Zone.t;
  dns : Dns.Resolver.server;
  sites : (string * site) list;
  att_trace : Net.Trace.t;
  verizon_trace : Net.Trace.t;
}

let site_names = [ "google"; "yahoo"; "myspace"; "youtube"; "vonage" ]

let ms n = Int64.mul (Int64.of_int n) 1_000_000L
let mbps n = n * 1_000_000
let gbps n = n * 1_000_000_000

let create ?(costs = Core.Protocol.default_costs) ?offload_via
    ?(policy = Net.Routing.Shortest) () =
  let topo = Net.Topology.create () in
  let att = Net.Topology.add_domain topo ~name:"att" ~prefix:"10.1.0.0/16" in
  let cogent =
    Net.Topology.add_domain topo ~name:"cogent" ~prefix:"10.2.0.0/16"
  in
  let planetlab =
    Net.Topology.add_domain topo ~name:"planetlab" ~prefix:"10.3.0.0/16"
  in
  let verizon =
    Net.Topology.add_domain topo ~name:"verizon" ~prefix:"10.4.0.0/16"
  in
  let node d kind name = Net.Topology.add_node topo ~domain:d ~kind ~name in
  let ann = node att Host "ann" in
  let att_router = node att Router "att-r1" in
  let ben = node verizon Host "ben" in
  let verizon_router = node verizon Router "vz-r1" in
  let cog_r1 = node cogent Router "cogent-r1" in
  let cog_r2 = node cogent Router "cogent-r2" in
  let nbox1 = node cogent Neutralizer_box "neutralizer-1" in
  let nbox2 = node cogent Neutralizer_box "neutralizer-2" in
  let pl_router = node planetlab Router "pl-r1" in
  let resolver = node planetlab Host "resolver" in
  let site_nodes =
    List.map (fun name -> (name, node cogent Host name)) site_names
  in
  let link = Net.Topology.add_link topo in
  (* access links *)
  link ann.nid att_router.nid ~bandwidth_bps:(mbps 100) ~latency:(ms 1) ();
  link ben.nid verizon_router.nid ~bandwidth_bps:(mbps 100) ~latency:(ms 1) ();
  (* peering: access ISPs reach Cogent through its boundary boxes *)
  link att_router.nid nbox1.nid ~bandwidth_bps:(gbps 1) ~latency:(ms 5)
    ~rel:Net.Topology.Peer ();
  link verizon_router.nid nbox2.nid ~bandwidth_bps:(gbps 1) ~latency:(ms 5)
    ~rel:Net.Topology.Peer ();
  (* Cogent backbone *)
  link nbox1.nid cog_r1.nid ~bandwidth_bps:(gbps 10) ~latency:(ms 1) ();
  link nbox2.nid cog_r2.nid ~bandwidth_bps:(gbps 10) ~latency:(ms 1) ();
  link cog_r1.nid cog_r2.nid ~bandwidth_bps:(gbps 10) ~latency:(ms 2) ();
  List.iter
    (fun (_, n) ->
      link cog_r1.nid n.Net.Topology.nid ~bandwidth_bps:(gbps 1)
        ~latency:(ms 1) ())
    site_nodes;
  (* third-party resolver domain *)
  link att_router.nid pl_router.nid ~bandwidth_bps:(gbps 1) ~latency:(ms 3)
    ~rel:Net.Topology.Peer ();
  link verizon_router.nid pl_router.nid ~bandwidth_bps:(gbps 1)
    ~latency:(ms 3) ~rel:Net.Topology.Peer ();
  link pl_router.nid resolver.nid ~bandwidth_bps:(gbps 1) ~latency:(ms 1) ();
  (* the neutralizer service address *)
  let anycast = Net.Ipaddr.of_string "10.2.255.1" in
  Net.Topology.register_anycast topo anycast [ nbox1.nid; nbox2.nid ];
  let engine = Net.Engine.create () in
  let net = Net.Network.create ~policy engine topo in
  (* taps *)
  let att_trace = Net.Trace.create () in
  let verizon_trace = Net.Trace.create () in
  Net.Network.add_tap net att (Net.Trace.tap att_trace);
  Net.Network.add_tap net verizon (Net.Trace.tap verizon_trace);
  (* neutralizer boxes: replicas created from the same seed, demonstrating
     the shared-master-key fault tolerance of §3.2 *)
  let master = Core.Master_key.of_seed ~seed:"cogent-master" in
  let offload_helper =
    Option.map
      (fun name -> (List.assoc name site_nodes).Net.Topology.addr)
      offload_via
  in
  let box_of nodebox i =
    let drbg = Crypto.Drbg.create ~seed:(Printf.sprintf "box-%d" i) in
    let cfg =
      { (Core.Neutralizer.default_config ~anycast ~master
           ~rng:(fun n -> Crypto.Drbg.generate drbg n))
        with Core.Neutralizer.costs = costs;
             offload_helper
      }
    in
    Core.Neutralizer.attach net nodebox cfg
  in
  let boxes = [ box_of nbox1 1; box_of nbox2 2 ] in
  (* DNS *)
  let resolver_key = Keyring.e2e 0 in
  let zone = Dns.Zone.create () in
  let resolver_host = Net.Host.attach net resolver in
  let resolver_drbg = Crypto.Drbg.create ~seed:"resolver" in
  let dns =
    Dns.Resolver.serve resolver_host ~zone ~signer:resolver_key
      ~decryption_key:resolver_key
      ~rng:(fun n -> Crypto.Drbg.generate resolver_drbg n)
      ()
  in
  (* sites *)
  let sites =
    List.mapi
      (fun i (name, n) ->
        let key = Keyring.e2e (i + 1) in
        let host = Net.Host.attach net n in
        let server =
          Core.Server.create host ~private_key:key ~neutralizer:anycast
            ~seed:("site-" ^ name) ()
        in
        Core.Server.set_responder server (fun srv ~peer payload ->
            Core.Server.reply srv ~session:peer ~app:"reply"
              ("re:" ^ payload));
        if offload_via = Some name then Core.Server.serve_offload server;
        Dns.Zone.publish_site zone ~name:(name ^ ".example")
          ~addr:n.Net.Topology.addr ~neutralizers:[ anycast ]
          ~key:key.Crypto.Rsa.public;
        (name, { site_name = name; node = n; host; server; key }))
      site_nodes
  in
  let ann_host = Net.Host.attach net ann in
  let ben_host = Net.Host.attach net ben in
  { topo;
    engine;
    net;
    att;
    verizon;
    cogent;
    planetlab;
    ann;
    ann_host;
    ben;
    ben_host;
    att_router;
    verizon_router;
    anycast;
    master;
    boxes;
    resolver_addr = resolver.addr;
    resolver_key;
    zone;
    dns;
    sites;
    att_trace;
    verizon_trace
  }

let site t name = List.assoc name t.sites

let make_client t host ~seed ?(strategy = Core.Multihome.Round_robin) () =
  let drbg = Crypto.Drbg.create ~seed:(seed ^ "-cfg") in
  let base =
    Core.Client.default_config ~rng:(fun n -> Crypto.Drbg.generate drbg n)
  in
  let pool = Keyring.onetime_pool () in
  let config =
    { base with
      Core.Client.dns_server = Some t.resolver_addr;
      dns_encrypt = Some t.resolver_key.Crypto.Rsa.public;
      dns_verify = Some t.resolver_key.Crypto.Rsa.public;
      onetime_keygen = pool;
      strategy
    }
  in
  Core.Client.create host ~config ~seed ()

let run ?until t = Net.Network.run ?until t.net

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl > 0 && go 0

let observed_address_leaks trace addr =
  let octets = Net.Ipaddr.to_octets addr in
  Net.Trace.count trace (fun o ->
      Net.Ipaddr.equal o.Net.Observation.src addr
      || Net.Ipaddr.equal o.dst addr
      || contains o.payload octets
      || match o.shim with Some s -> contains s octets | None -> false)
