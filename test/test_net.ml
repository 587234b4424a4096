(* Tests for the network simulator substrate: addresses, event engine,
   links, topology, routing, the forwarding plane, hosts and
   measurement. *)

open Net

let prop name gen print f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name ~print gen f)

(* ---- Ipaddr ---- *)

let test_ipaddr_strings () =
  let a = Ipaddr.of_string "10.1.2.3" in
  Alcotest.(check string) "roundtrip" "10.1.2.3" (Ipaddr.to_string a);
  Alcotest.(check int) "int" 0x0a010203 (Ipaddr.to_int a);
  Alcotest.(check string) "octets" "\x0a\x01\x02\x03" (Ipaddr.to_octets a);
  List.iter
    (fun bad ->
      match Ipaddr.of_string bad with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %S" bad)
    [ "256.1.1.1"; "1.2.3"; "a.b.c.d"; ""; "1.2.3.4.5" ]

let test_prefix () =
  let p = Ipaddr.Prefix.of_string "10.1.0.0/16" in
  Alcotest.(check bool) "mem" true (Ipaddr.Prefix.mem (Ipaddr.of_string "10.1.200.3") p);
  Alcotest.(check bool) "not mem" false (Ipaddr.Prefix.mem (Ipaddr.of_string "10.2.0.1") p);
  Alcotest.(check string) "nth" "10.1.0.5" (Ipaddr.to_string (Ipaddr.Prefix.nth p 5));
  Alcotest.(check string) "canonical" "10.1.0.0/16"
    (Ipaddr.Prefix.to_string (Ipaddr.Prefix.make (Ipaddr.of_string "10.1.77.8") 16));
  let host = Ipaddr.Prefix.of_string "10.1.2.3/32" in
  Alcotest.(check bool) "host route" true (Ipaddr.Prefix.mem (Ipaddr.of_string "10.1.2.3") host);
  Alcotest.(check bool) "host route excl" false (Ipaddr.Prefix.mem (Ipaddr.of_string "10.1.2.4") host);
  let all = Ipaddr.Prefix.of_string "0.0.0.0/0" in
  Alcotest.(check bool) "default" true (Ipaddr.Prefix.mem (Ipaddr.of_string "203.0.113.9") all)

(* ---- Pqueue ---- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  Pqueue.push q 30L 0 "c";
  Pqueue.push q 10L 1 "a";
  Pqueue.push q 20L 2 "b";
  let pop () =
    match Pqueue.pop_min q with Some (_, _, v) -> v | None -> "-"
  in
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ]
    [ first; second; third ];
  Alcotest.(check bool) "empty" true (Pqueue.is_empty q)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 5L 1 "first";
  Pqueue.push q 5L 2 "second";
  Pqueue.push q 5L 3 "third";
  let pop () =
    match Pqueue.pop_min q with Some (_, _, v) -> v | None -> "-"
  in
  let a = pop () in
  let b = pop () in
  let c = pop () in
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ]
    [ a; b; c ]

(* The free slots of the value array must not keep a popped value
   reachable while the heap itself lives on. *)
let test_pqueue_no_pin () =
  let q = Pqueue.create () in
  let probe = Weak.create 1 in
  let[@inline never] fill () =
    List.iteri
      (fun i time ->
        let v = Bytes.make 16 (Char.chr (65 + i)) in
        if i = 0 then Weak.set probe 0 (Some v);
        Pqueue.push q time i v)
      [ 1L; 2L; 3L ]
  in
  let[@inline never] pop_first () =
    Alcotest.(check string) "first out" "AAAAAAAAAAAAAAAA"
      (Bytes.to_string (Pqueue.pop_value q))
  in
  fill ();
  pop_first ();
  Gc.full_major ();
  Alcotest.(check bool) "popped value collected" false (Weak.check probe 0);
  Alcotest.(check int) "heap still live" 2 (Pqueue.length (Sys.opaque_identity q))

let test_pqueue_time_range () =
  let q = Pqueue.create () in
  Pqueue.push q (Int64.of_int max_int) 0 "edge";
  Alcotest.check_raises "beyond 63-bit"
    (Invalid_argument "Pqueue.push: time out of range")
    (fun () -> Pqueue.push q Int64.max_int 1 "too-far");
  match Pqueue.pop_min q with
  | Some (t, _, v) ->
    Alcotest.(check int64) "roundtrip" (Int64.of_int max_int) t;
    Alcotest.(check string) "value" "edge" v
  | None -> Alcotest.fail "lost the edge entry"

let pqueue_props =
  [ prop "drains sorted"
      QCheck2.Gen.(list_size (int_bound 100) (int_bound 1000))
      (fun l -> String.concat "," (List.map string_of_int l))
      (fun times ->
        let q = Pqueue.create () in
        List.iteri (fun i t -> Pqueue.push q (Int64.of_int t) i t) times;
        let rec drain acc =
          match Pqueue.pop_min q with
          | None -> List.rev acc
          | Some (_, _, v) -> drain (v :: acc)
        in
        drain [] = List.sort compare times);
    prop "drains in (time, seq) order with ties"
      (* Timestamps drawn from a tiny range force plenty of collisions,
         so the FIFO tie-break carries the ordering. *)
      QCheck2.Gen.(list_size (int_bound 100) (int_bound 5))
      (fun l -> String.concat "," (List.map string_of_int l))
      (fun times ->
        let q = Pqueue.create () in
        List.iteri (fun i t -> Pqueue.push q (Int64.of_int t) i (t, i)) times;
        let rec drain acc =
          match Pqueue.pop_min q with
          | None -> List.rev acc
          | Some (t, s, v) ->
            if v <> (Int64.to_int t, s) then Alcotest.fail "value mismatch";
            drain ((Int64.to_int t, s) :: acc)
        in
        let got = drain [] in
        got = List.sort compare got && List.length got = List.length times);
    prop "interleaved push/pop matches a reference model"
      QCheck2.Gen.(list_size (int_bound 60) (int_bound 100))
      (fun l -> String.concat "," (List.map string_of_int l))
      (fun times ->
        (* Every pop must return the (time, seq) minimum of the current
           contents, tracked in a sorted reference list. *)
        let q = Pqueue.create ~capacity:4 () in
        let model = ref [] in
        let seq = ref 0 in
        let ok = ref true in
        let pop_and_check () =
          match Pqueue.pop_min q, !model with
          | None, [] -> ()
          | Some (t, s, v), (mt, ms) :: rest ->
            if (Int64.to_int t, s) <> (mt, ms) || v <> mt then ok := false;
            model := rest
          | _ -> ok := false
        in
        List.iter
          (fun t ->
            Pqueue.push q (Int64.of_int t) !seq t;
            model := List.sort compare ((t, !seq) :: !model);
            incr seq;
            if t mod 3 = 0 then pop_and_check ())
          times;
        while not (Pqueue.is_empty q) do
          pop_and_check ()
        done;
        !ok && !model = [])
  ]

(* ---- Inttbl ---- *)

let inttbl_props =
  [ prop "agrees with Hashtbl through growth"
      (* Keys drawn from the address range, few enough distinct ones to
         rebind some, many enough to grow the table several times. *)
      QCheck2.Gen.(
        list_size (int_bound 200)
          (pair (oneof [ int_bound 50; int_bound 0xffffffff ]) small_nat))
      (fun l ->
        String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%d:%d" k v) l))
      (fun bindings ->
        let t = Inttbl.create 1 and model = Hashtbl.create 16 in
        List.iter
          (fun (k, v) ->
            Inttbl.replace t k v;
            Hashtbl.replace model k v)
          bindings;
        let probes = List.map fst bindings @ [ 51; 0xfffffffe; -1 ] in
        List.for_all
          (fun k ->
            Inttbl.find t k ~default:(-1)
            = Option.value (Hashtbl.find_opt model k) ~default:(-1))
          probes
        && List.sort compare (Inttbl.fold (fun k v acc -> (k, v) :: acc) t [])
           = List.sort compare
               (Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []))
  ]

(* ---- Engine ---- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.schedule e ~delay:30L (note "c"));
  ignore (Engine.schedule e ~delay:10L (note "a"));
  ignore (Engine.schedule e ~delay:20L (note "b"));
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int64) "clock" 30L (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:10L (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "not processed" 0 (Engine.processed e)

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(Int64.of_int (i * 100)) (fun () -> incr count))
  done;
  Engine.run ~until:500L e;
  Alcotest.(check int) "only first five" 5 !count;
  Engine.run e;
  Alcotest.(check int) "rest later" 10 !count

let test_engine_nested () =
  let e = Engine.create () in
  let times = ref [] in
  ignore
    (Engine.schedule e ~delay:10L (fun () ->
         times := Engine.now e :: !times;
         ignore
           (Engine.schedule e ~delay:5L (fun () ->
                times := Engine.now e :: !times))));
  Engine.run e;
  Alcotest.(check (list int64)) "nested timing" [ 10L; 15L ] (List.rev !times)

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      ignore (Engine.schedule e ~delay:(-1L) (fun () -> ())));
  Alcotest.check_raises "negative seconds"
    (Invalid_argument "Engine.schedule_s: negative delay") (fun () ->
      ignore (Engine.schedule_s e ~delay_s:(-0.5) (fun () -> ())));
  Alcotest.check_raises "past a native int"
    (Invalid_argument "Engine.schedule: time out of range") (fun () ->
      ignore (Engine.schedule e ~delay:Int64.max_int (fun () -> ())));
  Alcotest.check_raises "posted past a native int"
    (Invalid_argument "Engine.post: time out of range") (fun () ->
      ignore (Engine.post e ~shard:0 ~at:Int64.max_int (fun () -> ())));
  Alcotest.(check int) "rejection scheduled nothing" 0 (Engine.scheduled e)

let test_engine_invariants () =
  (* A private registry keeps this test's numbers unpolluted by (and
     from polluting) the rest of the suite. *)
  let obs = Obs.Registry.create () in
  let e = Engine.create ~obs () in
  Engine.check_invariants e;
  let ran = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:(Int64.of_int i) (fun () -> incr ran))
  done;
  let doomed = Engine.schedule e ~delay:5L (fun () -> incr ran) in
  Engine.cancel doomed;
  Engine.check_invariants e;
  Alcotest.(check int) "pending includes cancelled" 11 (Engine.pending e);
  Engine.run ~until:4L e;
  Engine.check_invariants e;
  Alcotest.(check int) "partial run" 4 !ran;
  Engine.run e;
  Alcotest.(check int) "cancelled not executed" 10 !ran;
  Alcotest.(check int) "processed" 10 (Engine.processed e);
  Alcotest.(check int) "scheduled" 11 (Engine.scheduled e);
  Alcotest.(check int) "drained" 0 (Engine.pending e);
  (* The obs mirror agrees with the engine's own bookkeeping. *)
  let ctr name = Obs.Counter.value (Obs.Registry.counter obs name) in
  Alcotest.(check int) "obs processed" 10 (ctr "net.engine.events_processed");
  Alcotest.(check int) "obs scheduled" 11 (ctr "net.engine.events_scheduled");
  Alcotest.(check int) "obs cancelled" 1 (ctr "net.engine.events_cancelled")

(* [sim_wall_ratio] divides by wall-clock time: a run whose only event
   (at 1 s simulated) blocks for 50 ms took at least 50 ms of real time,
   so it reads at most 20, however little CPU the thread burned. *)
let test_engine_sim_wall_ratio () =
  let obs = Obs.Registry.create () in
  let e = Engine.create ~obs () in
  ignore (Engine.schedule_s e ~delay_s:1.0 (fun () -> Unix.sleepf 0.05));
  Engine.run e;
  let ratio = Obs.Gauge.value (Obs.Registry.gauge obs "net.engine.sim_wall_ratio") in
  Alcotest.(check bool)
    (Printf.sprintf "0 < ratio <= 20 (read %g)" ratio)
    true
    (ratio > 0.0 && ratio <= 20.0)

(* An engine recording into the process-global registry must not outlive
   its run: the registry may not hold anything that reaches the engine,
   or every world the last engine's pending events reach stays live. *)
let test_engine_collected () =
  let seen = Weak.create 1 in
  let[@inline never] run_and_drop () =
    let e = Engine.create () in
    ignore (Engine.schedule e ~delay:5L ignore);
    Engine.run e;
    Weak.set seen 0 (Some e)
  in
  run_and_drop ();
  Gc.full_major ();
  Alcotest.(check bool) "collected after its run" false (Weak.check seen 0)

(* ---- Link ---- *)

let test_link_timing () =
  let e = Engine.create () in
  let arrived = ref (-1L) in
  (* 1000 byte packet at 8 Mbit/s = 1 ms serialization; latency 2 ms. *)
  let link =
    Link.create e ~bandwidth_bps:8_000_000 ~latency:2_000_000L
      ~deliver:(fun _ -> arrived := Engine.now e)
      ()
  in
  let p =
    Packet.make
      ~src:(Ipaddr.of_string "1.1.1.1")
      ~dst:(Ipaddr.of_string "2.2.2.2")
      (String.make 972 'x')
  in
  Alcotest.(check int) "packet size" 1000 (Packet.size p);
  Alcotest.(check bool) "sent" true (Link.send link p = Link.Sent);
  Engine.run e;
  Alcotest.(check int64) "serialize + propagate" 3_000_000L !arrived

let test_link_serialization_queue () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let link =
    Link.create e ~bandwidth_bps:8_000_000 ~latency:0L
      ~deliver:(fun _ -> arrivals := Engine.now e :: !arrivals)
      ()
  in
  let p =
    Packet.make
      ~src:(Ipaddr.of_string "1.1.1.1")
      ~dst:(Ipaddr.of_string "2.2.2.2")
      (String.make 972 'x')
  in
  ignore (Link.send link p);
  ignore (Link.send link p);
  Engine.run e;
  (* Second packet waits for the first to serialize. *)
  Alcotest.(check (list int64)) "back to back" [ 1_000_000L; 2_000_000L ]
    (List.rev !arrivals)

let test_link_drops () =
  let e = Engine.create () in
  let link =
    Link.create e ~bandwidth_bps:1000 ~latency:0L ~queue_bytes:150
      ~deliver:(fun _ -> ())
      ()
  in
  let p =
    Packet.make
      ~src:(Ipaddr.of_string "1.1.1.1")
      ~dst:(Ipaddr.of_string "2.2.2.2")
      (String.make 72 'x')
  in
  Alcotest.(check bool) "first fits" true (Link.send link p = Link.Sent);
  Alcotest.(check bool) "second dropped" true
    (Link.send link p = Link.Dropped Link.Queue_full);
  let stats = Link.stats link in
  Alcotest.(check int) "drop counted" 1 stats.dropped_packets;
  Engine.run e;
  Alcotest.(check int) "sent counted" 1 (Link.stats link).sent_packets

let test_link_admin_down () =
  let e = Engine.create () in
  let delivered = ref 0 in
  let link =
    Link.create e ~bandwidth_bps:8_000_000 ~latency:0L ~label:"t-admin"
      ~deliver:(fun _ -> incr delivered)
      ()
  in
  let p =
    Packet.make
      ~src:(Ipaddr.of_string "1.1.1.1")
      ~dst:(Ipaddr.of_string "2.2.2.2")
      "x"
  in
  Link.set_up link false;
  Alcotest.(check bool) "refused while down" true
    (Link.send link p = Link.Dropped Link.Link_down);
  (* Every refusal is a counted obs event with a reason label, never an
     exception escaping the datapath. *)
  let drops reason =
    Obs.Counter.value
      (Obs.Registry.counter (Engine.obs e)
         ~labels:[ ("reason", reason); ("link", "t-admin") ]
         "net.link.drops")
  in
  Alcotest.(check int) "counted with reason=down" 1 (drops "down");
  Alcotest.(check int) "queue family untouched" 0 (drops "queue");
  Alcotest.(check int) "aggregate drop stat" 1 (Link.stats link).dropped_packets;
  Link.set_up link true;
  Alcotest.(check bool) "accepted once back up" true
    (Link.send link p = Link.Sent);
  Engine.run e;
  Alcotest.(check int) "delivered after re-up" 1 !delivered

let test_link_queue_drop_reason () =
  let e = Engine.create () in
  let link =
    Link.create e ~bandwidth_bps:1000 ~latency:0L ~queue_bytes:150
      ~label:"t-tail"
      ~deliver:(fun _ -> ())
      ()
  in
  let p =
    Packet.make
      ~src:(Ipaddr.of_string "1.1.1.1")
      ~dst:(Ipaddr.of_string "2.2.2.2")
      (String.make 72 'x')
  in
  ignore (Link.send link p);
  ignore (Link.send link p);
  let drops reason =
    Obs.Counter.value
      (Obs.Registry.counter (Engine.obs e)
         ~labels:[ ("reason", reason); ("link", "t-tail") ]
         "net.link.drops")
  in
  Alcotest.(check int) "tail drop under reason=queue" 1 (drops "queue");
  Alcotest.(check int) "down family untouched" 0 (drops "down");
  Engine.run e

(* A [bytes]-byte packet whose meta seq is [seq]. *)
let sized ?(seq = 0) bytes =
  Packet.make ~seq
    ~src:(Ipaddr.of_string "1.1.1.1")
    ~dst:(Ipaddr.of_string "2.2.2.2")
    (String.make (bytes - 28) 'x')

(* One 1000-byte packet sent at 0 on an 8 Mbit/s link with 2 ms of
   latency (serialization ends at 1 ms, delivery at 3 ms), with the
   link's administrative state flipped at the given instants (ns). The
   delivery times and the link's "down" drops. *)
let down_flips flips =
  let e = Engine.create ~obs:(Obs.Registry.create ()) () in
  let arrivals = ref [] in
  let link =
    Link.create e ~bandwidth_bps:8_000_000 ~latency:2_000_000L ~label:"t-flip"
      ~deliver:(fun _ -> arrivals := Engine.now e :: !arrivals)
      ()
  in
  List.iter
    (fun (at, up) ->
      ignore (Engine.schedule e ~delay:at (fun () -> Link.set_up link up)))
    flips;
  Alcotest.(check bool) "sent" true (Link.send link (sized 1000) = Link.Sent);
  Engine.run e;
  let down =
    Obs.Counter.value
      (Obs.Registry.counter (Engine.obs e)
         ~labels:[ ("reason", "down"); ("link", "t-flip") ]
         "net.link.drops")
  in
  (List.rev !arrivals, down, Link.stats link)

let test_link_down_at_serialization_end () =
  let arrivals, down, stats = down_flips [ (500_000L, false) ] in
  Alcotest.(check (list int64)) "never delivered" [] arrivals;
  Alcotest.(check int) "counted as link_down" 1 down;
  Alcotest.(check int) "not sent" 0 stats.sent_packets;
  Alcotest.(check int) "dropped" 1 stats.dropped_packets;
  (* Back up before the delivery instant: the state at the end of
     serialization still decides. *)
  let arrivals, down, _ =
    down_flips [ (500_000L, false); (1_500_000L, true) ]
  in
  Alcotest.(check (list int64)) "up again in flight: still lost" [] arrivals;
  Alcotest.(check int) "still link_down" 1 down

let test_link_down_after_serialization () =
  let arrivals, down, stats = down_flips [ (1_500_000L, false) ] in
  Alcotest.(check (list int64)) "delivered" [ 3_000_000L ] arrivals;
  Alcotest.(check int) "no link_down" 0 down;
  Alcotest.(check int) "sent" 1 stats.sent_packets

let test_link_down_up_within_serialization () =
  let arrivals, down, stats =
    down_flips [ (200_000L, false); (800_000L, true) ]
  in
  Alcotest.(check (list int64)) "delivered" [ 3_000_000L ] arrivals;
  Alcotest.(check int) "no link_down" 0 down;
  Alcotest.(check int) "no drop" 0 stats.dropped_packets

(* Drop-tail at an exact serialization end: a send made, at that
   instant, by an event queued before the departing packet was sent
   still finds the departing bytes in the queue; one nanosecond later
   they are gone. *)
let test_link_tail_tie () =
  let attempt offset =
    let e = Engine.create ~obs:(Obs.Registry.create ()) () in
    let link =
      Link.create e ~bandwidth_bps:8_000_000 ~latency:0L ~queue_bytes:1500
        ~deliver:(fun _ -> ())
        ()
    in
    let result = ref None in
    ignore
      (Engine.schedule e ~delay:(Int64.add 1_000_000L offset) (fun () ->
           result := Some (Link.send link (sized ~seq:1 1000))));
    Alcotest.(check bool) "first sent" true
      (Link.send link (sized 1000) = Link.Sent);
    Engine.run e;
    !result
  in
  Alcotest.(check bool) "at the serialization end: queue full" true
    (attempt 0L = Some (Link.Dropped Link.Queue_full));
  Alcotest.(check bool) "just after it: sent" true
    (attempt 1L = Some Link.Sent)

(* The fault hook runs inside the delivery event: once per packet, in
   FIFO order, at the delivery instant, and a packet it passes through
   with no extra delay is delivered then. *)
let test_link_perturb_at_delivery () =
  let e = Engine.create ~obs:(Obs.Registry.create ()) () in
  let hooked = ref [] and delivered = ref [] in
  let link =
    Link.create e ~bandwidth_bps:8_000_000 ~latency:1_000_000L
      ~deliver:(fun p ->
        delivered := (Engine.now e, p.Packet.meta.seq) :: !delivered)
      ()
  in
  Link.set_perturb link
    (Some
       (fun p ->
         hooked := (Engine.now e, p.Packet.meta.seq) :: !hooked;
         [ (p, 0L) ]));
  for seq = 0 to 2 do
    ignore (Link.send link (sized ~seq 1000))
  done;
  Engine.run e;
  Alcotest.(check (list (pair int64 int)))
    "once per packet, at each delivery, FIFO"
    [ (2_000_000L, 0); (3_000_000L, 1); (4_000_000L, 2) ]
    (List.rev !hooked);
  Alcotest.(check (list (pair int64 int)))
    "delivered a latency after serialization"
    [ (2_000_000L, 0); (3_000_000L, 1); (4_000_000L, 2) ]
    (List.rev !delivered)

(* A packet whose serialization ends while the link is down is dropped
   as [Link_down] before the hook could see it; the next one, sent once
   the link is back up, reaches the hook, which duplicates it with the
   copy delayed. *)
let test_link_perturb_skips_link_down () =
  let e = Engine.create ~obs:(Obs.Registry.create ()) () in
  let hooked = ref [] and delivered = ref [] in
  let link =
    Link.create e ~bandwidth_bps:8_000_000 ~latency:1_000_000L
      ~label:"t-hook-down"
      ~deliver:(fun p ->
        delivered := (Engine.now e, p.Packet.meta.seq) :: !delivered)
      ()
  in
  Link.set_perturb link
    (Some
       (fun p ->
         hooked := p.Packet.meta.seq :: !hooked;
         [ (p, 0L); (p, 250_000L) ]));
  let flip at up =
    ignore (Engine.schedule e ~delay:at (fun () -> Link.set_up link up))
  in
  flip 500_000L false;
  flip 1_500_000L true;
  ignore
    (Engine.schedule e ~delay:1_600_000L (fun () ->
         ignore (Link.send link (sized ~seq:1 1000))));
  ignore (Link.send link (sized ~seq:0 1000));
  Engine.run e;
  let down =
    Obs.Counter.value
      (Obs.Registry.counter (Engine.obs e)
         ~labels:[ ("reason", "down"); ("link", "t-hook-down") ]
         "net.link.drops")
  in
  Alcotest.(check int) "first packet dropped as link_down" 1 down;
  Alcotest.(check (list int)) "the hook saw only the second" [ 1 ]
    (List.rev !hooked);
  Alcotest.(check (list (pair int64 int)))
    "delivered at 3.6 ms, the copy 0.25 ms later"
    [ (3_600_000L, 1); (3_850_000L, 1) ]
    (List.rev !delivered)

(* The two-event link, kept as an oracle: a dequeue event at the end of
   serialization takes the packet's bytes off the queue, drops it if the
   link is down and otherwise schedules its delivery a latency later.
   [ends] records every serialization end, so a scenario can stay clear
   of the instants where the two models order ties differently. *)
module Two_event_link = struct
  type t = {
    engine : Engine.t;
    bandwidth_bps : int;
    latency : int64;
    capacity : int;
    deliver : Packet.t -> unit;
    mutable up : bool;
    mutable queued : int;
    mutable busy_until : int64;
    mutable ends : int64 list;
    mutable stats : Link.stats;
    mutable queue_drops : int;
    mutable down_drops : int;
  }

  let create engine ~bandwidth_bps ~latency ~queue_bytes ~deliver =
    { engine;
      bandwidth_bps;
      latency;
      capacity = queue_bytes;
      deliver;
      up = true;
      queued = 0;
      busy_until = 0L;
      ends = [];
      stats =
        { sent_packets = 0;
          sent_bytes = 0;
          dropped_packets = 0;
          dropped_bytes = 0;
          max_queue_bytes = 0
        };
      queue_drops = 0;
      down_drops = 0
    }

  let drop t bytes reason =
    t.stats <-
      { t.stats with
        dropped_packets = t.stats.dropped_packets + 1;
        dropped_bytes = t.stats.dropped_bytes + bytes
      };
    (match reason with
     | Link.Queue_full -> t.queue_drops <- t.queue_drops + 1
     | Link.Link_down -> t.down_drops <- t.down_drops + 1
     | Link.Shed -> ());
    Link.Dropped reason

  let send t p =
    let bytes = Packet.size p in
    if not t.up then drop t bytes Link.Link_down
    else if t.queued + bytes > t.capacity then drop t bytes Link.Queue_full
    else begin
      let now = Engine.now t.engine in
      t.queued <- t.queued + bytes;
      t.stats <-
        { t.stats with max_queue_bytes = max t.stats.max_queue_bytes t.queued };
      let tx =
        Int64.div
          (Int64.mul (Int64.of_int (bytes * 8)) 1_000_000_000L)
          (Int64.of_int t.bandwidth_bps)
      in
      let done_tx = Int64.add (max t.busy_until now) tx in
      t.busy_until <- done_tx;
      t.ends <- done_tx :: t.ends;
      ignore
        (Engine.schedule t.engine ~delay:(Int64.sub done_tx now) (fun () ->
             t.queued <- t.queued - bytes;
             if not t.up then ignore (drop t bytes Link.Link_down)
             else begin
               t.stats <-
                 { t.stats with
                   sent_packets = t.stats.sent_packets + 1;
                   sent_bytes = t.stats.sent_bytes + bytes
                 };
               ignore
                 (Engine.schedule t.engine ~delay:t.latency (fun () ->
                      t.deliver p))
             end));
      Link.Sent
    end
end

type link_op = Send of int | Flip

(* A scenario: bandwidth, latency, queue capacity, and ops each after a
   gap (ns) from the previous one. *)
let gen_link_scenario =
  let open QCheck2.Gen in
  let* bw = oneofl [ 1_000_000; 8_000_000; 100_000_000; 1_000_000_000 ] in
  let* latency = oneof [ pure 0; int_range 1 3_000_000 ] in
  let* cap = int_range 28 6000 in
  let* ops =
    list_size (int_range 1 60)
      (pair (int_range 0 400_000)
         (frequency
            [ (9, map (fun n -> Send n) (int_range 28 1500)); (1, pure Flip) ]))
  in
  return (bw, latency, cap, ops)

let print_link_scenario (bw, latency, cap, ops) =
  Printf.sprintf "bw=%d latency=%d cap=%d ops=[%s]" bw latency cap
    (String.concat "; "
       (List.map
          (fun (gap, op) ->
            match op with
            | Send n -> Printf.sprintf "+%d send %d" gap n
            | Flip -> Printf.sprintf "+%d flip" gap)
          ops))

(* Plays a scenario on one link model: every op is an event at its
   instant, scheduled up front in op order. Returns the send results in
   op order, the deliveries as (time, seq) in order, and the op
   instants. *)
let play_link_scenario (_, _, _, ops) ~send ~flip engine delivered =
  let results = ref [] and instants = ref [] in
  ignore
    (List.fold_left
       (fun (at, seq) (gap, op) ->
         let at = Int64.add at (Int64.of_int gap) in
         instants := at :: !instants;
         ignore
           (Engine.schedule engine ~delay:at (fun () ->
                match op with
                | Send n -> results := (seq, send (sized ~seq n)) :: !results
                | Flip -> flip ()));
         (at, seq + 1))
       (0L, 0) ops);
  Engine.run engine;
  (List.rev !results, List.rev !delivered, !instants)

let prop_link_matches_two_event_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500
       ~name:"one-event link = two-event reference off serialization ends"
       ~print:print_link_scenario gen_link_scenario
       (fun ((bw, latency, cap, _) as scenario) ->
         let record engine delivered p =
           delivered := (Engine.now engine, p.Packet.meta.seq) :: !delivered
         in
         let e_ref = Engine.create ~obs:(Obs.Registry.create ()) () in
         let d_ref = ref [] in
         let reference =
           Two_event_link.create e_ref ~bandwidth_bps:bw
             ~latency:(Int64.of_int latency) ~queue_bytes:cap
             ~deliver:(record e_ref d_ref)
         in
         let want =
           play_link_scenario scenario e_ref d_ref
             ~send:(Two_event_link.send reference)
             ~flip:(fun () -> reference.up <- not reference.up)
         in
         let _, _, instants = want in
         QCheck2.assume
           (not (List.exists (fun at -> List.mem at reference.ends) instants));
         let e = Engine.create ~obs:(Obs.Registry.create ()) () in
         let d = ref [] in
         let link =
           Link.create e ~bandwidth_bps:bw ~latency:(Int64.of_int latency)
             ~queue_bytes:cap ~label:"t-oracle" ~deliver:(record e d) ()
         in
         let got =
           play_link_scenario scenario e d ~send:(Link.send link)
             ~flip:(fun () -> Link.set_up link (not (Link.is_up link)))
         in
         let drops reason =
           Obs.Counter.value
             (Obs.Registry.counter (Engine.obs e)
                ~labels:[ ("reason", reason); ("link", "t-oracle") ]
                "net.link.drops")
         in
         got = want
         && Link.stats link = reference.stats
         && drops "queue" = reference.queue_drops
         && drops "down" = reference.down_drops))

(* ---- Topology / Routing / Network ---- *)

let star () =
  (* hub with three spokes a, b, c; c is far *)
  let topo = Topology.create () in
  let d = Topology.add_domain topo ~name:"d" ~prefix:"10.0.0.0/16" in
  let hub = Topology.add_node topo ~domain:d ~kind:Router ~name:"hub" in
  let a = Topology.add_node topo ~domain:d ~kind:Host ~name:"a" in
  let b = Topology.add_node topo ~domain:d ~kind:Host ~name:"b" in
  let c = Topology.add_node topo ~domain:d ~kind:Host ~name:"c" in
  Topology.add_link topo a.nid hub.nid ~bandwidth_bps:1_000_000_000 ~latency:1_000_000L ();
  Topology.add_link topo b.nid hub.nid ~bandwidth_bps:1_000_000_000 ~latency:1_000_000L ();
  Topology.add_link topo c.nid hub.nid ~bandwidth_bps:1_000_000_000 ~latency:50_000_000L ();
  (topo, d, hub, a, b, c)

let test_topology_addresses () =
  let topo, d, hub, a, b, _ = star () in
  Alcotest.(check bool) "distinct" true (not (Ipaddr.equal a.addr b.addr));
  Alcotest.(check bool) "in prefix" true (Topology.in_domain topo a.addr d);
  Alcotest.(check int) "lookup" hub.nid (Topology.node_id_of_addr topo hub.addr);
  let fresh = Topology.fresh_address topo d in
  Alcotest.(check int) "fresh distinct" (-1)
    (Topology.node_id_of_addr topo fresh)

let test_domain_longest_match () =
  let topo = Topology.create () in
  let big = Topology.add_domain topo ~name:"big" ~prefix:"10.0.0.0/8" in
  let small = Topology.add_domain topo ~name:"small" ~prefix:"10.5.0.0/16" in
  ignore big;
  (match Topology.domain_of_addr topo (Ipaddr.of_string "10.5.1.1") with
   | Some dom -> Alcotest.(check int) "longest" small dom.did
   | None -> Alcotest.fail "no domain");
  (match Topology.domain_of_addr topo (Ipaddr.of_string "10.9.1.1") with
   | Some dom -> Alcotest.(check string) "fallback" "big" dom.domain_name
   | None -> Alcotest.fail "no domain")

let test_routing_shortest () =
  let topo, _, hub, a, _, c = star () in
  let r = Routing.compute topo in
  Alcotest.(check int) "via hub" hub.nid
    (Routing.next_hop r topo ~from:a.nid c.addr);
  Alcotest.(check (option int64)) "distance" (Some 51_000_000L)
    (Routing.distance r ~from:a.nid ~to_:c.nid)

let test_routing_unreachable () =
  let topo = Topology.create () in
  let d = Topology.add_domain topo ~name:"d" ~prefix:"10.0.0.0/16" in
  let a = Topology.add_node topo ~domain:d ~kind:Host ~name:"a" in
  let b = Topology.add_node topo ~domain:d ~kind:Host ~name:"b" in
  let r = Routing.compute topo in
  Alcotest.(check int) "no route" (-1)
    (Routing.next_hop r topo ~from:a.nid b.addr);
  Alcotest.(check bool) "not reachable" false
    (Routing.distance r ~from:a.nid ~to_:b.nid <> None)

let test_routing_anycast_nearest () =
  let topo, _, _, a, b, c = star () in
  let any = Ipaddr.of_string "10.0.255.1" in
  Topology.register_anycast topo any [ b.nid; c.nid ];
  let r = Routing.compute topo in
  (* from a, b (2ms) is closer than c (51ms) *)
  let e = Engine.create () in
  let net = Network.create e topo in
  ignore r;
  let hit = ref (-1) in
  Network.set_handler net b.nid (fun _ nid _ -> hit := nid);
  Network.set_handler net c.nid (fun _ nid _ -> hit := nid);
  Network.send net ~from:a.nid (Packet.make ~src:a.addr ~dst:any "x");
  Network.run net;
  Alcotest.(check int) "nearest member" b.nid !hit

(* The network's [net.network.dropped{reason}] count, read from the
   engine's registry: tests that read it give the engine a private one. *)
let network_drops e reason =
  Obs.Counter.value
    (Obs.Registry.counter (Engine.obs e)
       ~labels:[ ("reason", reason) ]
       "net.network.dropped")

let test_network_ttl () =
  let topo, _, _, a, b, _ = star () in
  let e = Engine.create ~obs:(Obs.Registry.create ()) () in
  let net = Network.create e topo in
  Network.send net ~from:a.nid (Packet.make ~ttl:1 ~src:a.addr ~dst:b.addr "x");
  Network.run net;
  Alcotest.(check int) "ttl drop" 1 (network_drops e "ttl")

let test_network_middleware_actions () =
  let topo, d, _, a, b, _ = star () in
  let e = Engine.create ~obs:(Obs.Registry.create ()) () in
  let net = Network.create e topo in
  let got = ref [] in
  Network.set_handler net b.nid (fun _ _ p ->
      got := (p.Packet.dscp, Engine.now e) :: !got);
  Network.add_middleware net d (fun obs ->
      if obs.Observation.dscp = 1 then Network.Drop
      else if obs.dscp = 2 then Network.Delay 100_000_000L
      else if obs.dscp = 3 then Network.Remark 9
      else Network.Forward);
  List.iter
    (fun dscp ->
      Network.send net ~from:a.nid (Packet.make ~dscp ~src:a.addr ~dst:b.addr "x"))
    [ 0; 1; 2; 3 ];
  Network.run net;
  let got = List.rev !got in
  Alcotest.(check int) "delivered three" 3 (List.length got);
  Alcotest.(check int) "policy dropped one" 1 (network_drops e "policy");
  (match got with
   | [ (d0, _); (d3, _); (d2, t2) ] ->
     Alcotest.(check int) "forward untouched" 0 d0;
     Alcotest.(check int) "remarked" 9 d3;
     Alcotest.(check int) "delayed keeps dscp" 2 d2;
     Alcotest.(check bool) "delayed later" true (Int64.compare t2 100_000_000L > 0)
   | _ -> Alcotest.fail "unexpected order")

let test_network_taps_see_wire_only () =
  let topo, d, _, a, b, _ = star () in
  let e = Engine.create () in
  let net = Network.create e topo in
  let seen = ref [] in
  Network.add_tap net d (fun o -> seen := o :: !seen);
  Network.send net ~from:a.nid
    (Packet.make ~src:a.addr ~dst:b.addr ~app:"secret-label" ~flow_id:42 "data");
  Network.run net;
  Alcotest.(check bool) "saw packets" true (List.length !seen > 0);
  (* The Observation type structurally cannot carry meta; check payload
     matches the wire and sizes are consistent. *)
  List.iter
    (fun (o : Observation.t) ->
      Alcotest.(check string) "payload as wire" "data" o.payload;
      Alcotest.(check int) "size" (20 + 8 + 4) o.size)
    !seen

let test_network_service_serializes () =
  let topo, _, _, a, _, _ = star () in
  let obs = Obs.Registry.create () in
  let e = Engine.create ~obs () in
  let net = Network.create e topo in
  let finished = ref [] in
  Network.service net a.nid ~cost:1000L (fun () ->
      finished := Engine.now e :: !finished);
  Network.service ~kind:Network.Data_forward net a.nid ~cost:1000L (fun () ->
      finished := Engine.now e :: !finished);
  Network.run net;
  Alcotest.(check (list int64)) "single server queue" [ 1000L; 2000L ]
    (List.rev !finished);
  (* Each charge lands in its kind's histogram. *)
  let charges kind =
    Obs.Histogram.count
      (Obs.Registry.histogram obs ~labels:[ ("kind", kind) ]
         "net.network.service_ns")
  in
  Alcotest.(check (list int)) "charges by kind" [ 1; 1; 0 ]
    (List.map charges [ "other"; "data_forward"; "key_setup" ])

let test_recompute_routes_after_link_add () =
  let topo = Topology.create () in
  let d = Topology.add_domain topo ~name:"d" ~prefix:"10.0.0.0/16" in
  let a = Topology.add_node topo ~domain:d ~kind:Host ~name:"a" in
  let b = Topology.add_node topo ~domain:d ~kind:Host ~name:"b" in
  let e = Engine.create () in
  let net = Network.create e topo in
  let got = ref 0 in
  Network.set_handler net b.nid (fun _ _ _ -> incr got);
  Network.send net ~from:a.nid (Packet.make ~src:a.addr ~dst:b.addr "x");
  Network.run net;
  Alcotest.(check int) "unreachable first" 0 !got;
  Topology.add_link topo a.nid b.nid ~bandwidth_bps:1_000_000 ~latency:1_000L ();
  Network.recompute_routes net;
  Network.send net ~from:a.nid (Packet.make ~src:a.addr ~dst:b.addr "x");
  Network.run net;
  Alcotest.(check int) "reachable after" 1 !got

(* Two equal-role routers between a and b: a fast one (m1) and a slow
   one (m2). The canonical shape for watching routing converge around a
   dead router. *)
let diamond () =
  let topo = Topology.create () in
  let d = Topology.add_domain topo ~name:"d" ~prefix:"10.0.0.0/16" in
  let n name = Topology.add_node topo ~domain:d ~kind:Router ~name in
  let a = n "a" and m1 = n "m1" and m2 = n "m2" and b = n "b" in
  let link x y lat =
    Topology.add_link topo x y ~bandwidth_bps:1_000_000_000 ~latency:lat ()
  in
  link a.nid m1.nid 1_000_000L;
  link m1.nid b.nid 1_000_000L;
  link a.nid m2.nid 10_000_000L;
  link m2.nid b.nid 10_000_000L;
  (topo, a, m1, m2, b)

let test_routes_converge_around_down_node () =
  let topo, a, m1, _, b = diamond () in
  let e = Engine.create ~obs:(Obs.Registry.create ()) () in
  let net = Network.create e topo in
  let got = ref 0 and at = ref 0L in
  Network.set_handler net b.nid (fun _ _ _ ->
      incr got;
      at := Engine.now e);
  let send () =
    let t0 = Engine.now e in
    Network.send net ~from:a.nid (Packet.make ~src:a.addr ~dst:b.addr "x");
    Network.run net;
    Int64.sub !at t0
  in
  let d0 = send () in
  Alcotest.(check int) "fast path first" 1 !got;
  Alcotest.(check bool) "via m1 (~2 ms)" true (d0 < 5_000_000L);
  (* Crash m1. Until routing reconverges, the stale route blackholes
     into the dead router — counted, not raised. *)
  Network.set_node_up net m1.nid ~up:false;
  ignore (send ());
  Alcotest.(check int) "stale route blackholes" 1 !got;
  Alcotest.(check int) "counted as node_down" 1 (network_drops e "node_down");
  (* Reconvergence must route around the corpse, not through it. *)
  Network.recompute_routes net;
  let d1 = send () in
  Alcotest.(check int) "converged around the dead router" 2 !got;
  Alcotest.(check bool) "via m2 (~20 ms)" true (d1 >= 20_000_000L);
  Network.set_node_up net m1.nid ~up:true;
  Network.recompute_routes net;
  let d2 = send () in
  Alcotest.(check int) "restored" 3 !got;
  Alcotest.(check bool) "fast again after restart" true (d2 < 5_000_000L)

(* ---- anycast withdraw and re-announce ---- *)

(* Routers R1 and R2 joined by a slow (30 ms) link; C connects to both
   with fast (1 ms) links, D hangs off R1 and E off R2. *)
let anycast_world () =
  let topo = Topology.create () in
  let dom name prefix = Topology.add_domain topo ~name ~prefix in
  let p1 = dom "p1" "10.1.0.0/16" and p2 = dom "p2" "10.2.0.0/16" in
  let cd = dom "c" "10.3.0.0/16" in
  let dd = dom "d" "10.4.0.0/16" and ed = dom "e" "10.5.0.0/16" in
  let node d name = Topology.add_node topo ~domain:d ~kind:Router ~name in
  let r1 = node p1 "r1" and r2 = node p2 "r2" in
  let c = node cd "c" and d = node dd "d" and e = node ed "e" in
  let link a b latency =
    Topology.add_link topo a.Topology.nid b.Topology.nid
      ~bandwidth_bps:1_000_000_000 ~latency ()
  in
  link r1 c 1_000_000L;
  link r2 c 1_000_000L;
  link r1 d 1_000_000L;
  link r2 e 1_000_000L;
  link r1 r2 30_000_000L;
  (topo, c, d, e)

(* Anycast membership mutation (a member withdrawing is what a crashed
   neutralizer box looks like to routing) must be picked up by
   [recompute_routes]. Group {c, e} seen from d: c is 2 ms away; with c
   withdrawn the survivor e is reached through c's links (4 ms). *)
let test_anycast_recompute () =
  let topo, c, d, e = anycast_world () in
  let any = Ipaddr.of_string "10.200.0.1" in
  Topology.register_anycast topo any [ c.nid; e.nid ];
  let eng = Engine.create () in
  let net = Network.create eng topo in
  let hit = ref (-1) and at = ref 0L in
  let handler _ nid _ =
    hit := nid;
    at := Engine.now eng
  in
  Network.set_handler net c.nid handler;
  Network.set_handler net e.nid handler;
  let send () =
    let t0 = Engine.now eng in
    Network.send net ~from:d.nid (Packet.make ~src:d.addr ~dst:any "probe");
    Network.run net;
    Int64.sub !at t0
  in
  ignore (send ());
  Alcotest.(check int) "nearest member first" c.nid !hit;
  Topology.remove_anycast_member topo any c.nid;
  Network.recompute_routes net;
  let dt = send () in
  Alcotest.(check int) "re-homed to surviving member" e.nid !hit;
  Alcotest.(check bool) "shortest path through c's links (~4 ms)" true
    (dt < 10_000_000L);
  Topology.add_anycast_member topo any c.nid;
  Network.recompute_routes net;
  ignore (send ());
  Alcotest.(check int) "re-announced member wins again" c.nid !hit

(* ---- Per-hop lookups vs list-scan references ---- *)

(* The references exist only here: an address resolves by scanning
   [Topology.nodes], anycast membership by [List.mem] over the groups
   the test itself registered, a link by scanning [iter_links]. *)
let check_hop_lookups net topo routing groups =
  let nodes = Topology.nodes topo in
  let links =
    let acc = ref [] in
    Network.iter_links net (fun a b l -> acc := (a, b, l) :: !acc);
    List.rev !acc
  in
  let ok = ref true in
  let expect cond = if not cond then ok := false in
  (* Every edge is one link each way, listed by source id and then in
     creation (edge) order. *)
  let sources = List.map (fun (a, _, _) -> a) links in
  expect (sources = List.sort compare sources);
  List.iter
    (fun (n : Topology.node) ->
      let created =
        List.fold_left
          (fun acc (e : Topology.edge) ->
            let far = if e.a = n.nid then e.b else if e.b = n.nid then e.a else -1 in
            if far < 0 || List.mem far acc then acc else acc @ [ far ])
          [] (Topology.edges topo)
      in
      expect
        (List.filter_map
           (fun (a, b, _) -> if a = n.nid then Some b else None)
           links
        = created))
    nodes;
  List.iter
    (fun (a : Topology.node) ->
      List.iter
        (fun (b : Topology.node) ->
          let scanned =
            List.find_map
              (fun (a', b', l) -> if a' = a.nid && b' = b.nid then Some l else None)
              links
          in
          expect
            (match (Network.link_between net a.nid b.nid, scanned) with
             | None, None -> true
             | Some l, Some l' -> l == l'
             | _ -> false))
        nodes)
    nodes;
  let members addr =
    match List.assoc_opt addr groups with Some m -> m | None -> []
  in
  let unicast addr =
    match List.find_opt (fun (n : Topology.node) -> n.addr = addr) nodes with
    | Some n -> n.nid
    | None -> -1
  in
  let latency a b =
    List.find_map
      (fun (e : Topology.edge) ->
        if (e.a = a && e.b = b) || (e.a = b && e.b = a) then Some e.latency
        else None)
      (Topology.edges topo)
  in
  let unused = Topology.fresh_address topo 0 in
  let dsts =
    unused :: List.map fst groups
    @ List.map (fun (n : Topology.node) -> n.addr) nodes
  in
  expect (Topology.anycast_groups topo = List.sort compare groups);
  List.iter
    (fun dst ->
      expect (Topology.node_id_of_addr topo dst = unicast dst);
      List.iter
        (fun (from : Topology.node) ->
          let from = from.nid in
          expect (Topology.serves topo dst from = List.mem from (members dst));
          let hop = Routing.next_hop routing topo ~from dst in
          match members dst with
          | _ :: _ as ms ->
            (* The nearest reachable member (the first on a tie), or
               [from] itself when it serves. *)
            let target =
              if List.mem from ms then from
              else
                fst
                  (List.fold_left
                     (fun (best, bd) m ->
                       match Routing.distance routing ~from ~to_:m with
                       | Some d when best < 0 || d < bd -> (m, d)
                       | _ -> (best, bd))
                     (-1, 0L) ms)
            in
            expect
              (hop
               = if target < 0 || target = from then target
                 else
                   Routing.next_hop routing topo ~from
                     (Topology.node topo target).addr)
          | [] ->
            let target = unicast dst in
            if target < 0 then expect (hop = -1)
            else if target = from then expect (hop = from)
            else begin
              match Routing.distance routing ~from ~to_:target with
              | None -> expect (hop = -1)
              | Some d ->
                (* A neighbour on a shortest path to the target. *)
                expect
                  (Network.link_between net from hop <> None
                  && Some d
                     = Option.bind (latency from hop) (fun l ->
                           Option.map (Int64.add l)
                             (Routing.distance routing ~from:hop ~to_:target)))
            end)
        nodes)
    dsts;
  !ok

let prop_hop_lookups =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"link_between and next_hop agree with list-scan references"
       ~print:(fun (domains, boxes, clients, seed) ->
         Printf.sprintf "domains=%d boxes=%d clients=%d seed=%d" domains
           boxes clients seed)
       QCheck2.Gen.(
         let* domains = 2 -- 30 in
         let* boxes = 1 -- min 4 domains in
         let* clients = 0 -- 3 in
         let+ seed = 0 -- 1_000_000 in
         (domains, boxes, clients, seed))
       (fun (domains, box_domains, clients, seed) ->
         let gen = Topogen.generate ~box_domains ~domains ~seed () in
         let topo = gen.Topogen.topo in
         for i = 1 to clients do
           ignore
             (Topogen.client gen ~domain:(i * 7 mod domains)
                ~name:(Printf.sprintf "h%d" i) ()
               : Topology.node)
         done;
         let net =
           Network.create (Engine.create ~obs:(Obs.Registry.create ()) ()) topo
         in
         let routing = Routing.compute topo in
         let boxes = List.map snd gen.Topogen.boxes in
         let built = [ (gen.Topogen.anycast, boxes) ] in
         let ok_built = check_hop_lookups net topo routing built in
         (* A withdrawn box, with the routes recomputed. *)
         Topology.remove_anycast_member topo gen.Topogen.anycast (List.hd boxes);
         Network.recompute_routes net;
         let withdrawn = [ (gen.Topogen.anycast, List.tl boxes) ] in
         let ok_withdrawn = check_hop_lookups net topo routing withdrawn in
         (* A fresh group and no recompute: the QoS path. *)
         let qos = Topology.fresh_address topo (domains - 1) in
         let qos_members = [ gen.Topogen.routers.(domains - 1); List.hd boxes ] in
         Topology.register_anycast topo qos qos_members;
         ok_built && ok_withdrawn
         && check_hop_lookups net topo routing ((qos, qos_members) :: withdrawn)))

(* ---- Host ---- *)

let host_world () =
  let topo, _, _, a, b, _ = star () in
  let e = Engine.create () in
  let net = Network.create e topo in
  (net, Host.attach net a, Host.attach net b)

let test_host_ports () =
  let net, ha, hb = host_world () in
  let got = ref [] in
  Host.listen hb ~port:1234 (fun _ p -> got := p.Packet.payload :: !got);
  Host.send_udp ha ~dst:(Host.addr hb) ~dst_port:1234 "to-1234";
  Host.send_udp ha ~dst:(Host.addr hb) ~dst_port:9 "to-9";
  Network.run net;
  Alcotest.(check (list string)) "dispatch" [ "to-1234" ] !got;
  Alcotest.(check int) "unmatched dropped" 1 (Host.default_drop hb)

let test_host_request_reply () =
  let net, ha, hb = host_world () in
  Host.listen hb ~port:7 (fun hb p ->
      Host.send_udp hb ~dst:p.Packet.src ~dst_port:p.Packet.src_port
        ("echo:" ^ p.payload));
  let result = ref "" in
  Host.request ha ~dst:(Host.addr hb) ~dst_port:7 ~timeout:1_000_000_000L "hi"
    ~on_reply:(fun p -> result := p.Packet.payload)
    ~on_timeout:(fun () -> result := "TIMEOUT");
  Network.run net;
  Alcotest.(check string) "echoed" "echo:hi" !result

let test_host_request_timeout_retries () =
  let net, ha, hb = host_world () in
  let attempts = ref 0 in
  Host.listen hb ~port:7 (fun _ _ -> incr attempts);
  let result = ref "" in
  Host.request ha ~dst:(Host.addr hb) ~dst_port:7 ~timeout:10_000_000L
    ~retries:2 "hi"
    ~on_reply:(fun _ -> result := "REPLY")
    ~on_timeout:(fun () -> result := "TIMEOUT");
  Network.run net;
  Alcotest.(check string) "timed out" "TIMEOUT" !result;
  Alcotest.(check int) "retransmitted" 3 !attempts

let test_host_on_deliver () =
  let net, ha, hb = host_world () in
  let count = ref 0 in
  Host.on_deliver hb (fun _ -> incr count);
  Host.listen hb ~port:5 (fun _ _ -> ());
  Host.send_udp ha ~dst:(Host.addr hb) ~dst_port:5 "x";
  Host.send_udp ha ~dst:(Host.addr hb) ~dst_port:6 "y";
  Network.run net;
  Alcotest.(check int) "hook sees all" 2 !count

(* ---- Flow / Trace ---- *)

let test_flow_stats () =
  let flows = Flow.create () in
  let mk seq sent_at =
    Packet.make ~flow_id:1 ~seq ~sent_at ~app:"t"
      ~src:(Ipaddr.of_string "1.1.1.1")
      ~dst:(Ipaddr.of_string "2.2.2.2")
      (String.make 100 'x')
  in
  for i = 1 to 10 do
    Flow.on_send flows (mk i 0L)
  done;
  for i = 1 to 8 do
    Flow.on_receive flows
      ~now:(Int64.of_int (i * 1_000_000))
      (mk i (Int64.of_int ((i - 1) * 1_000_000)))
  done;
  match Flow.report flows ~flow_id:1 with
  | None -> Alcotest.fail "no report"
  | Some r ->
    Alcotest.(check int) "sent" 10 r.sent;
    Alcotest.(check int) "received" 8 r.received;
    Alcotest.(check (float 0.001)) "loss" 0.2 r.loss;
    Alcotest.(check (float 0.01)) "latency ms" 1.0 r.mean_latency_ms

let test_mos_shape () =
  let base =
    { Flow.flow_id = 1; app = "v"; sent = 100; received = 100; sent_bytes = 0;
      received_bytes = 0; loss = 0.0; mean_latency_ms = 10.0;
      max_latency_ms = 10.0; jitter_ms = 0.0; throughput_bps = 0.0 }
  in
  let good = Flow.mos base in
  let lossy = Flow.mos { base with loss = 0.3 } in
  let slow = Flow.mos { base with mean_latency_ms = 500.0 } in
  Alcotest.(check bool) "good is good" true (good > 4.0);
  Alcotest.(check bool) "loss hurts" true (lossy < good -. 1.0);
  Alcotest.(check bool) "latency hurts" true (slow < good -. 0.5)

let test_trace_capacity () =
  let tr = Trace.create ~capacity:3 () in
  let obs i =
    Observation.of_packet ~now:(Int64.of_int i)
      (Packet.make
         ~src:(Ipaddr.of_string "1.1.1.1")
         ~dst:(Ipaddr.of_string "2.2.2.2")
         (string_of_int i))
  in
  for i = 1 to 5 do
    Trace.tap tr (obs i)
  done;
  Alcotest.(check int) "bounded" 3 (Trace.length tr);
  Alcotest.(check int) "oldest evicted" 0
    (Trace.count tr (fun o -> o.Observation.payload = "1"));
  Alcotest.(check bool) "newest kept" true
    (Trace.exists tr (fun o -> o.Observation.payload = "5"))

let () =
  Alcotest.run "net"
    [ ( "ipaddr",
        [ Alcotest.test_case "strings" `Quick test_ipaddr_strings;
          Alcotest.test_case "prefix" `Quick test_prefix
        ] );
      ( "pqueue",
        [ Alcotest.test_case "order" `Quick test_pqueue_order;
          Alcotest.test_case "fifo ties" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "popped value not pinned" `Quick
            test_pqueue_no_pin;
          Alcotest.test_case "time range" `Quick test_pqueue_time_range
        ]
        @ pqueue_props );
      ("inttbl", inttbl_props);
      ( "engine",
        [ Alcotest.test_case "order" `Quick test_engine_order;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "nested" `Quick test_engine_nested;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
          Alcotest.test_case "invariants and obs mirror" `Quick
            test_engine_invariants;
          Alcotest.test_case "sim_wall_ratio is wall-clock" `Quick
            test_engine_sim_wall_ratio;
          Alcotest.test_case "dropped engine collected" `Quick
            test_engine_collected
        ] );
      ( "link",
        [ Alcotest.test_case "timing" `Quick test_link_timing;
          Alcotest.test_case "serialization queue" `Quick
            test_link_serialization_queue;
          Alcotest.test_case "drops" `Quick test_link_drops;
          Alcotest.test_case "admin down refused+counted" `Quick
            test_link_admin_down;
          Alcotest.test_case "tail drop reason label" `Quick
            test_link_queue_drop_reason;
          Alcotest.test_case "down at serialization end drops" `Quick
            test_link_down_at_serialization_end;
          Alcotest.test_case "down after serialization end delivers" `Quick
            test_link_down_after_serialization;
          Alcotest.test_case "down and up within serialization delivers"
            `Quick test_link_down_up_within_serialization;
          Alcotest.test_case "tail drop tie at serialization end" `Quick
            test_link_tail_tie;
          Alcotest.test_case "perturb hook at delivery" `Quick
            test_link_perturb_at_delivery;
          Alcotest.test_case "perturb hook skips link_down, delays a copy"
            `Quick
            test_link_perturb_skips_link_down;
          prop_link_matches_two_event_model
        ] );
      ( "topology-routing",
        [ Alcotest.test_case "addresses" `Quick test_topology_addresses;
          Alcotest.test_case "longest match" `Quick test_domain_longest_match;
          Alcotest.test_case "shortest path" `Quick test_routing_shortest;
          Alcotest.test_case "unreachable" `Quick test_routing_unreachable;
          Alcotest.test_case "anycast nearest" `Quick
            test_routing_anycast_nearest;
          Alcotest.test_case "anycast withdraw/re-announce (shortest)" `Quick
            test_anycast_recompute;
          prop_hop_lookups
        ] );
      ( "network",
        [ Alcotest.test_case "ttl" `Quick test_network_ttl;
          Alcotest.test_case "middleware actions" `Quick
            test_network_middleware_actions;
          Alcotest.test_case "taps wire view" `Quick
            test_network_taps_see_wire_only;
          Alcotest.test_case "service queue" `Quick
            test_network_service_serializes;
          Alcotest.test_case "recompute routes" `Quick
            test_recompute_routes_after_link_add;
          Alcotest.test_case "converge around down node" `Quick
            test_routes_converge_around_down_node
        ] );
      ( "host",
        [ Alcotest.test_case "ports" `Quick test_host_ports;
          Alcotest.test_case "request/reply" `Quick test_host_request_reply;
          Alcotest.test_case "timeout retries" `Quick
            test_host_request_timeout_retries;
          Alcotest.test_case "on_deliver" `Quick test_host_on_deliver
        ] );
      ( "flow-trace",
        [ Alcotest.test_case "flow stats" `Quick test_flow_stats;
          Alcotest.test_case "mos shape" `Quick test_mos_shape;
          Alcotest.test_case "trace capacity" `Quick test_trace_capacity
        ] )
    ]
