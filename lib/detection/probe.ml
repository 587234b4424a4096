type profile = {
  profile_name : string;
  dst_port : int;
  pps : int;
  payload_of : int -> string;
}

let voip_profile =
  { profile_name = "voip";
    dst_port = 5060;
    pps = 50;
    payload_of =
      (fun seq ->
        (* A SIP-flavoured header followed by RTP-ish filler, 160 bytes. *)
        let header = Printf.sprintf "SIP/2.0 200 OK seq=%d " seq in
        header ^ String.make (160 - String.length header) '\xa5')
  }

let control_of ~seed p =
  let drbg = Crypto.Drbg.create ~seed:("probe-control-" ^ seed) in
  { profile_name = p.profile_name ^ "-control";
    dst_port = 40_000 + (p.dst_port mod 1000);
    pps = p.pps;
    payload_of =
      (fun seq ->
        (* identical length, unclassifiable content *)
        Crypto.Drbg.generate drbg (String.length (p.payload_of seq)))
  }

type flow_measure = {
  sent : int;
  received : int;
  loss : float;
  mean_latency_ms : float;
  throughput_bps : float;
}

type verdict = {
  probe_name : string;
  app : flow_measure;
  control : flow_measure;
  discriminated : bool;
  reason : string;
}

let loss_threshold = 0.05
let latency_factor = 2.0

let measure_of (r : Net.Flow.report) =
  { sent = r.sent;
    received = r.received;
    loss = r.loss;
    mean_latency_ms = r.mean_latency_ms;
    throughput_bps = r.throughput_bps
  }

let judge ~probe_name ~app ~control =
  let loss_delta = app.loss -. control.loss in
  let latency_bar = (latency_factor *. control.mean_latency_ms) +. 5.0 in
  if loss_delta > loss_threshold then
    { probe_name;
      app;
      control;
      discriminated = true;
      reason =
        Printf.sprintf "loss %.1f%% vs %.1f%% on identical timing"
          (100.0 *. app.loss) (100.0 *. control.loss)
    }
  else if app.received > 0 && app.mean_latency_ms > latency_bar then
    { probe_name;
      app;
      control;
      discriminated = true;
      reason =
        Printf.sprintf "latency %.1fms vs %.1fms on identical timing"
          app.mean_latency_ms control.mean_latency_ms
    }
  else
    { probe_name;
      app;
      control;
      discriminated = false;
      reason = "no significant differential"
    }

let drive engine host ~server_addr ~flow_id ~duration_s (p : profile) flows =
  let n = int_of_float (duration_s *. float_of_int p.pps) in
  let interval = 1.0 /. float_of_int p.pps in
  (* control offset by half an interval so both flows interleave and see
     the same path conditions *)
  let phase = if flow_id = 2 then interval /. 2.0 else 0.0 in
  for i = 0 to n - 1 do
    ignore
      (Net.Engine.schedule_s engine
         ~delay_s:(phase +. (interval *. float_of_int i))
         (fun () ->
           let payload = p.payload_of i in
           Net.Flow.on_send flows
             (Net.Packet.make ~src:(Net.Host.addr host) ~dst:server_addr
                ~flow_id payload);
           Net.Host.send_udp host ~dst:server_addr ~dst_port:p.dst_port
             ~flow_id ~seq:i ~app:("probe-" ^ p.profile_name) payload))
  done

let run net ~client ~server ?(duration_s = 5.0) profile k =
  let engine = Net.Network.engine net in
  let control = control_of ~seed:profile.profile_name profile in
  let app_flows = Net.Flow.create () in
  let ctl_flows = Net.Flow.create () in
  let record flows _host (p : Net.Packet.t) =
    Net.Flow.on_receive flows ~now:(Net.Engine.now engine) p
  in
  Net.Host.listen server ~port:profile.dst_port (record app_flows);
  Net.Host.listen server ~port:control.dst_port (record ctl_flows);
  let server_addr = Net.Host.addr server in
  drive engine client ~server_addr ~flow_id:1 ~duration_s profile app_flows;
  drive engine client ~server_addr ~flow_id:2 ~duration_s control ctl_flows;
  (* evaluate once the probe window plus generous drain time has passed *)
  ignore
    (Net.Engine.schedule_s engine ~delay_s:(duration_s +. 2.0) (fun () ->
         Net.Host.unlisten server ~port:profile.dst_port;
         Net.Host.unlisten server ~port:control.dst_port;
         let get flows flow_id =
           match Net.Flow.report flows ~flow_id with
           | Some r -> measure_of r
           | None ->
             { sent = 0;
               received = 0;
               loss = 1.0;
               mean_latency_ms = 0.0;
               throughput_bps = 0.0
             }
         in
         k
           (judge ~probe_name:profile.profile_name
              ~app:(get app_flows 1) ~control:(get ctl_flows 2))))
