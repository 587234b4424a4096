type t = {
  target : int;
  generate : unit -> Crypto.Rsa.private_key;
  q : Crypto.Rsa.private_key Queue.t;
  mu : Mutex.t;
      (* guards [q] and — deliberately — every call to [generate]. With
         generation itself serialized under the one lock, the keys enter
         the queue in generator-call order however refills interleave
         with inline misses, so a seeded generator yields a
         deterministic take sequence. *)
  g_depth : Obs.Gauge.t;
  g_hit_rate : Obs.Gauge.t;
  c_hits : Obs.Counter.t;
  c_misses : Obs.Counter.t;
  c_generated : Obs.Counter.t;
  mutable stop_refill : (unit -> unit) option;
}

let create ?(obs = Obs.Registry.default) ~target ~generate () =
  if target <= 0 then invalid_arg "Keypool.create: target must be positive";
  { target;
    generate;
    q = Queue.create ();
    mu = Mutex.create ();
    g_depth = Obs.Registry.gauge obs "core.keypool.depth";
    g_hit_rate = Obs.Registry.gauge obs "core.keypool.hit_rate";
    c_hits = Obs.Registry.counter obs "core.keypool.hits";
    c_misses = Obs.Registry.counter obs "core.keypool.misses";
    c_generated = Obs.Registry.counter obs "core.keypool.keys_generated";
    stop_refill = None
  }

let depth t = Mutex.protect t.mu (fun () -> Queue.length t.q)
let target t = t.target
let hits t = Obs.Counter.value t.c_hits
let misses t = Obs.Counter.value t.c_misses

(* callers hold [t.mu] *)
let note_depth t = Obs.Gauge.set_int t.g_depth (Queue.length t.q)

let note_hit_rate t =
  let h = hits t and m = misses t in
  if h + m > 0 then
    Obs.Gauge.set t.g_hit_rate (float_of_int h /. float_of_int (h + m))

(* callers hold [t.mu] *)
let refill_one_locked t =
  if Queue.length t.q < t.target then begin
    Queue.push (t.generate ()) t.q;
    Obs.Counter.inc t.c_generated;
    note_depth t;
    true
  end
  else false

let refill_one t = Mutex.protect t.mu (fun () -> refill_one_locked t)
let fill t = Mutex.protect t.mu (fun () -> while refill_one_locked t do () done)

let take t =
  Mutex.protect t.mu (fun () ->
      match Queue.take_opt t.q with
      | Some k ->
        Obs.Counter.inc t.c_hits;
        note_depth t;
        note_hit_rate t;
        k
      | None ->
        (* Pool dry: fall back to generating inline — exactly the cold
           path the pool exists to avoid, so it counts as a miss. Still
           under the lock, so the generator call order (and hence the
           key sequence) stays deterministic. *)
        Obs.Counter.inc t.c_misses;
        note_hit_rate t;
        t.generate ())

let put t k =
  Mutex.protect t.mu (fun () ->
      Queue.push k t.q;
      note_depth t)

let attach t engine ~period =
  (match t.stop_refill with Some stop -> stop () | None -> ());
  (* One key per tick: keygen cost is spread across simulated idle gaps
     instead of landing on a key-setup's latency path. The handler stays
     O(1) per event so it never stalls the event loop. *)
  t.stop_refill <- Some (Net.Engine.every engine ~period (fun () -> ignore (refill_one t)))

let detach t =
  match t.stop_refill with
  | Some stop ->
    stop ();
    t.stop_refill <- None
  | None -> ()
