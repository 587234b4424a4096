(* The Figure-1 workloads, on the canonical world of Scenario.World:
   Ann (AT&T) and Ben (Verizon) reach five Cogent sites through the
   neutralizer boxes, every site echoes what it receives ("re:" ^
   request), and AT&T polices its network with a compiled Dsl table
   installed through Network.set_middlewares.

   fig1-steady is the data path. Two long-lived clients send
   round-robin to the sites at a fixed simulated interval; after the
   warm-up every request rides an existing grant and session. One op is
   one echoed request.

   fig1-churn is new flows, as a closed loop of two. Each flow is a
   fresh client with a cold DNS cache and no grant that sends one
   request; the next flow on its host starts when the echo arrives. One
   op is one flow, from its first send to its first reply. *)

module W = Scenario.World
module Dsl = Discrimination.Dsl

(* AT&T's table: throttle what classifies as VoIP, delay key setups,
   deprioritize large packets. *)
let att_policy =
  Dsl.Union
    ( Dsl.Rule
        ( Dsl.App Discrimination.Classifier.Voip,
          Dsl.Throttle
            { Dsl.rate_bps = 256_000;
              burst_bytes = 16_000;
              max_delay_ns = 20_000_000L
            } ),
      Dsl.Union
        ( Dsl.Rule (Dsl.Key_setup, Dsl.Delay 2_000_000L),
          Dsl.Rule (Dsl.Size_at_least 1000, Dsl.Deprioritize) ) )

type world = {
  w : W.t;
  table : Net.Network.middleware;  (* the compiled AT&T table *)
  names : string array;  (* site DNS names, in the seed's round-robin order *)
  addrs : Net.Ipaddr.t array;
  small : string array;  (* seeded tails of 64 B requests *)
  large : string array;  (* seeded tails of 1200 B requests *)
}

(* A request starts with its op id in ten digits, so its echo names
   it. *)
let id_digits = 10
let request id tail = Printf.sprintf "%0*d" id_digits id ^ tail

let id_of s ~off =
  if String.length s < off + id_digits then -1
  else
    Option.value ~default:(-1) (int_of_string_opt (String.sub s off id_digits))

let is_echo reply req =
  let n = String.length req in
  let rec same i = i = n || (reply.[i + 3] = req.[i] && same (i + 1)) in
  String.length reply = n + 3 && String.starts_with ~prefix:"re:" reply && same 0

let echo srv ~peer req =
  Core.Server.reply srv ~session:peer ~app:"reply" ("re:" ^ req)

let traced_echo srv ~peer req =
  Spans.with_span Spans.Responder ~flow:(id_of req ~off:0) (fun () ->
      echo srv ~peer req)

(* Installs the AT&T table and the site responders, wrapped in spans for
   the traced phase or bare. *)
let set_tracing fw on =
  Net.Network.set_middlewares fw.w.W.net fw.w.W.att
    [ (if on then Spans.wrap_middleware fw.table else fw.table) ];
  List.iter
    (fun (_, site) ->
      Core.Server.set_responder site.W.server
        (if on then traced_echo else echo))
    fw.w.W.sites

let make_world ~seed =
  let w = W.create () in
  let rng = Random.State.make [| seed; 0xf161 |] in
  let n = List.length W.site_names in
  let first = Random.State.int rng n in
  let order = List.init n (fun i -> List.nth W.site_names ((first + i) mod n)) in
  let tail len =
    String.init (len - id_digits) (fun _ -> Char.chr (Random.State.int rng 256))
  in
  let small = Array.init 64 (fun _ -> tail 64) in
  let large = Array.init 64 (fun _ -> tail 1200) in
  let fw =
    { w;
      table =
        Dsl.middleware
          (Dsl.compile ~engine:w.W.engine ~domain:w.W.att att_policy);
      names = Array.of_list (List.map (fun s -> s ^ ".example") order);
      addrs =
        Array.of_list
          (List.map (fun s -> (W.site w s).W.node.Net.Topology.addr) order);
      small;
      large
    }
  in
  set_tracing fw false;
  fw

(* Runs the world's engine until it drains; the phase's wall time and
   event count cover exactly this call. *)
let run_engine fw (ph : Phase.t) ~traced =
  let engine = fw.w.W.engine in
  let events = Net.Engine.processed engine in
  let t0 = Clock.now () in
  if traced then
    Spans.with_span ~is_root:true Spans.Engine_run ~flow:(-1) (fun () ->
        W.run fw.w)
  else W.run fw.w;
  ph.wall_ns <- ph.wall_ns + (Clock.now () - t0);
  ph.events <- ph.events + (Net.Engine.processed engine - events)

(* The world's ISP taps record every packet into 64k-entry rings. The
   benchmark empties them every batch (or every few dozen flows), as a
   monitor hands its captures off: a full ring would make the run
   measure the garbage collector walking 100 MB of old observations. *)
let drain_taps fw =
  Net.Trace.clear fw.w.W.att_trace;
  Net.Trace.clear fw.w.W.verizon_trace

let sample_pending fw (ph : Phase.t) =
  Stats.add ph.pending (float_of_int (Net.Engine.pending fw.w.W.engine))

let fold_digest buf ~lane ~id reply =
  Buffer.add_string buf
    (Digest.string (Printf.sprintf "%d:%d:%s" lane id reply))

let digest_hex buf = Digest.to_hex (Digest.string (Buffer.contents buf))

(* What the layer probes take from a run: its world, a client holding a
   live grant, and a site address it sends to. *)
let source fw client = (fw.w, client, fw.addrs.(0))

module Steady = struct
  let interval = 1_000_000L (* ns between one client's sends *)
  let batch = 500 (* sends per client per engine drain *)
  let large_every = 8 (* one request in eight is 1200 B, the rest 64 B *)

  type msg = { lane : int; site : int; req : string; sent_ns : int }

  type t = {
    fw : world;
    clients : Core.Client.t array;
    sent : int array;
    inflight : (int, msg) Hashtbl.t;
    large_offset : int;
    mutable next_id : int;
    mutable errors : int;
    mutable bad : int;  (* echoes that match no outstanding request *)
    mutable ph : Phase.t;
    mutable traced : bool;
    fold : Buffer.t;
    mutable digest : string option;  (* over warm-up and the first batch *)
  }

  let send_one s lane =
    let k = s.sent.(lane) in
    s.sent.(lane) <- k + 1;
    let site = (k + lane) mod Array.length s.fw.names in
    let id = s.next_id in
    s.next_id <- id + 1;
    let tails =
      if (k + s.large_offset) mod large_every = 0 then s.fw.large
      else s.fw.small
    in
    let req = request id tails.(id land 63) in
    Hashtbl.replace s.inflight id { lane; site; req; sent_ns = Clock.now () };
    s.ph.attempted <- s.ph.attempted + 1;
    sample_pending s.fw s.ph;
    let send () =
      Core.Client.send_to_name s.clients.(lane) ~name:s.fw.names.(site)
        ~on_error:(fun _ -> s.errors <- s.errors + 1)
        req
    in
    if s.traced then Spans.with_span Spans.Send ~flow:id send else send ()

  let on_reply s lane ~peer reply =
    let id = id_of reply ~off:3 in
    let handle () =
      match Hashtbl.find_opt s.inflight id with
      | Some m
        when m.lane = lane && is_echo reply m.req
             && Net.Ipaddr.equal peer s.fw.addrs.(m.site) ->
        Hashtbl.remove s.inflight id;
        s.ph.ops <- s.ph.ops + 1;
        Stats.add s.ph.lat_ms (Clock.to_ms (Clock.now () - m.sent_ns));
        if s.digest = None then fold_digest s.fold ~lane ~id reply
      | Some _ | None -> s.bad <- s.bad + 1
    in
    if s.traced then Spans.with_span Spans.Reply_cb ~flow:id handle
    else handle ()

  let rec pace s lane left () =
    send_one s lane;
    if left > 1 then
      ignore
        (Net.Engine.schedule s.fw.w.W.engine ~delay:interval
           (pace s lane (left - 1)))

  (* Both clients pace [batch] sends, then the engine drains: a request
     still in flight then went unanswered. *)
  let run_batch s =
    let engine = s.fw.w.W.engine in
    ignore (Net.Engine.schedule engine ~delay:0L (pace s 0 batch));
    ignore
      (Net.Engine.schedule engine ~delay:(Int64.div interval 2L) (pace s 1 batch));
    let ops = s.ph.ops and wall_ns = s.ph.wall_ns in
    drain_taps s.fw;
    run_engine s.fw s.ph ~traced:s.traced;
    Phase.add_rate s.ph ~ops:(s.ph.ops - ops) ~wall_ns:(s.ph.wall_ns - wall_ns);
    s.ph.failed <- s.ph.failed + Hashtbl.length s.inflight;
    Hashtbl.reset s.inflight;
    if s.digest = None then s.digest <- Some (digest_hex s.fold)

  let phase s ~traced ~deadline =
    let ph = Phase.create () in
    s.ph <- ph;
    s.traced <- traced;
    set_tracing s.fw traced;
    let errors = s.errors and bad = s.bad in
    run_batch s;
    while Clock.now () < deadline && not (traced && Spans.full ()) do
      run_batch s
    done;
    ph.failed <- ph.failed + (s.errors - errors) + (s.bad - bad);
    if s.bad > bad then
      Phase.fail "fig1-steady: %d echoes did not match their request" (s.bad - bad);
    set_tracing s.fw false;
    s.traced <- false;
    ph

  let setup ~seed =
    let fw = make_world ~seed in
    let client name host =
      W.make_client fw.w host ~seed:(Printf.sprintf "steady-%s-%d" name seed) ()
    in
    let s =
      { fw;
        clients =
          [| client "ann" fw.w.W.ann_host; client "ben" fw.w.W.ben_host |];
        sent = [| 0; 0 |];
        inflight = Hashtbl.create 4096;
        large_offset = abs seed mod large_every;
        next_id = 0;
        errors = 0;
        bad = 0;
        ph = Phase.create ();
        traced = false;
        fold = Buffer.create 65536;
        digest = None
      }
    in
    Array.iteri
      (fun lane c ->
        Core.Client.set_receiver c (fun ~peer reply -> on_reply s lane ~peer reply))
      s.clients;
    (* Warm-up: one request from each client to each site pays DNS, key
       setup and session set-up before anything is measured. *)
    Array.iteri
      (fun lane _ -> Array.iter (fun _ -> send_one s lane) fw.names)
      s.clients;
    run_engine fw s.ph ~traced:false;
    let expected = Array.length s.clients * Array.length fw.names in
    if s.ph.ops <> expected then
      Phase.fail "fig1-steady: warm-up echoed %d of %d requests" s.ph.ops
        expected;
    Hashtbl.reset s.inflight;
    s

  let digest s = s.digest
  let probe_source s = source s.fw s.clients.(0)
end

module Churn = struct
  (* The digest covers the first flows, which every run completes. *)
  let digest_flows = 16

  type flow = {
    lane : int;
    site : int;
    req : string;
    start_ns : int;
    client : Core.Client.t;
  }

  type t = {
    fw : world;
    seed : int;
    hosts : Net.Host.t array;
    inflight : (int, flow) Hashtbl.t;
    mutable next_id : int;
    mutable errors : int;
    mutable bad : int;
    mutable extra_setups : int;  (* flows whose client ran other than one setup *)
    mutable deadline : int;
    mutable ph : Phase.t;
    mutable traced : bool;
    mutable last : Core.Client.t option;  (* the latest client to finish *)
    fold : Buffer.t;
    mutable folded : int;
    mutable window_ns : int;  (* start of the current throughput window *)
    mutable window_ops : int;
  }

  let window = 500_000_000 (* ns of wall time per throughput window *)

  (* Before each new flow the taps are emptied and the sites drop
     sessions idle for a simulated second, as a deployment's periodic
     Server.gc would; otherwise the session tables, and the heap, grow
     with the run. The last flows' frames stay at the tap for the
     probes. *)
  let sweep s =
    drain_taps s.fw;
    List.iter
      (fun (_, site) ->
        ignore (Core.Server.gc site.W.server ~idle:1_000_000_000L : int))
      s.fw.w.W.sites

  let more s =
    s.folded < digest_flows
    || (Clock.now () < s.deadline && not (s.traced && Spans.full ()))

  let rec start s lane =
    let id = s.next_id in
    s.next_id <- id + 1;
    let site = id mod Array.length s.fw.names in
    let client =
      W.make_client s.fw.w s.hosts.(lane)
        ~seed:(Printf.sprintf "churn-%d-%d" s.seed id)
        ()
    in
    let req = request id s.fw.small.(id land 63) in
    Core.Client.set_receiver client (fun ~peer reply ->
        on_reply s id ~peer reply);
    Hashtbl.replace s.inflight id
      { lane; site; req; start_ns = Clock.now (); client };
    s.ph.attempted <- s.ph.attempted + 1;
    sample_pending s.fw s.ph;
    let send () =
      Core.Client.send_to_name client ~name:s.fw.names.(site)
        ~on_error:(fun _ -> on_error s id)
        req
    in
    if s.traced then Spans.with_span Spans.Send ~flow:id send else send ()

  and on_error s id =
    s.errors <- s.errors + 1;
    match Hashtbl.find_opt s.inflight id with
    | None -> ()
    | Some f ->
      Hashtbl.remove s.inflight id;
      if more s then start s f.lane

  and on_reply s id ~peer reply =
    let handle () =
      match Hashtbl.find_opt s.inflight id with
      | None -> s.bad <- s.bad + 1
      | Some f ->
        Hashtbl.remove s.inflight id;
        if is_echo reply f.req && Net.Ipaddr.equal peer s.fw.addrs.(f.site)
        then begin
          s.ph.ops <- s.ph.ops + 1;
          let now = Clock.now () in
          Stats.add s.ph.lat_ms (Clock.to_ms (now - f.start_ns));
          if now - s.window_ns >= window then begin
            Phase.add_rate s.ph ~ops:(s.ph.ops - s.window_ops)
              ~wall_ns:(now - s.window_ns);
            s.window_ns <- now;
            s.window_ops <- s.ph.ops
          end;
          let k = Core.Client.counters f.client in
          if
            k.Core.Client.key_setups_started <> 1
            || k.Core.Client.key_setups_completed <> 1
          then s.extra_setups <- s.extra_setups + 1;
          s.last <- Some f.client;
          if s.folded < digest_flows then begin
            fold_digest s.fold ~lane:f.lane ~id reply;
            s.folded <- s.folded + 1
          end
        end
        else s.bad <- s.bad + 1;
        if more s then begin
          sweep s;
          start s f.lane
        end
    in
    if s.traced then Spans.with_span Spans.Reply_cb ~flow:id handle
    else handle ()

  let key_setups () = Snap.count (Snap.take ()) "core.neutralizer.key_setups"

  let phase s ~traced ~deadline =
    let ph = Phase.create () in
    s.ph <- ph;
    s.traced <- traced;
    s.deadline <- deadline;
    s.window_ns <- Clock.now ();
    s.window_ops <- 0;
    set_tracing s.fw traced;
    let errors = s.errors and bad = s.bad and extra = s.extra_setups in
    let setups = key_setups () in
    Array.iteri
      (fun lane _ ->
        ignore
          (Net.Engine.schedule s.fw.w.W.engine ~delay:0L (fun () -> start s lane)))
      s.hosts;
    run_engine s.fw ph ~traced;
    (* The loop stopped and the engine drained: flows still in flight
       went unanswered. *)
    ph.failed <-
      ph.failed + Hashtbl.length s.inflight + (s.errors - errors) + (s.bad - bad);
    Hashtbl.reset s.inflight;
    if s.bad > bad then
      Phase.fail "fig1-churn: %d echoes did not match their request" (s.bad - bad);
    let setups = key_setups () - setups in
    if setups <> ph.attempted || s.extra_setups > extra then
      Phase.fail
        "fig1-churn: %d key setups for %d flows; %d flows without exactly one"
        setups ph.attempted (s.extra_setups - extra);
    set_tracing s.fw false;
    s.traced <- false;
    ph

  let setup ~seed =
    let fw = make_world ~seed in
    (* Every fresh client draws its one-time key from a pool that starts
       at index 0: generate it now, as a deployment would offline. *)
    ignore (Scenario.Keyring.onetime 0 : Crypto.Rsa.private_key);
    { fw;
      seed;
      hosts = [| fw.w.W.ann_host; fw.w.W.ben_host |];
      inflight = Hashtbl.create 64;
      next_id = 0;
      errors = 0;
      bad = 0;
      extra_setups = 0;
      deadline = 0;
      ph = Phase.create ();
      traced = false;
      last = None;
      fold = Buffer.create 1024;
      folded = 0;
      window_ns = 0;
      window_ops = 0
    }

  let digest s =
    if s.folded >= digest_flows then Some (digest_hex s.fold) else None

  let probe_source s =
    match s.last with
    | Some client -> source s.fw client
    | None -> failwith "fig1-churn: no flow completed"
end
