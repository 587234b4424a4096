(* The event engine, sharded. A shard owns a private event heap, clock
   and sequence counter; shard count 1 runs the exact sequential loop
   the rest of the stack has always used (one queue, one clock, global
   FIFO tie-break). With more shards, [run] advances the simulation in
   conservative-lookahead rounds: every round processes, on every shard
   concurrently, the events strictly below [min next event + lookahead],
   and cross-shard events — which the lookahead bound guarantees land at
   or beyond that horizon — travel through per-source outboxes merged by
   the coordinator at the round barrier. Determinism comes from
   ownership, not scheduling: each shard's heap is touched only by the
   domain processing it, and the merge walks source shards in index
   order, so the destination sequence numbers (the FIFO tie-break) are
   identical no matter how the OS schedules the round's domains. *)

type event = { f : unit -> unit; mutable cancelled : bool }

(* Clocks are native ints (simulated ns, the heap's own timestamp type)
   so that advancing one per event stores no boxed [int64]. *)
type shard = {
  id : int;
  q : event Pqueue.t;
  mutable sclock : int;
  mutable sseq : int;
  mutable sprocessed : int;
  mutable sscheduled : int;
  mutable spopped : int;
  (* How much of [sprocessed]/[sscheduled] the obs counters have seen:
     the loops count in these plain fields and {!publish} adds the
     difference at each barrier and at the end of a run, instead of an
     atomic bump per event. *)
  mutable pub_processed : int;
  mutable pub_scheduled : int;
  (* Cross-shard events posted while this shard executes a round:
     (destination shard, absolute time, event), FIFO. Only this shard
     appends during a round; only the coordinator drains at the
     barrier. *)
  outbox : (int * int64 * event) Queue.t;
  (* Per-shard processed counter, resolved on the coordinator at
     [create] (registry mutation is not domain-safe). *)
  c_shard : Obs.Counter.t option;
}

type t = {
  shards : shard array;
  lookahead : int64; (* 0 when single-shard; > 0 otherwise *)
  window : int; (* [lookahead] as a native int, saturated at max_int *)
  mutable clock : int; (* coordinator clock: per event when
                          single-shard, per round otherwise *)
  mutable nrounds : int; (* barrier rounds completed (sharded only) *)
  mutable in_round : bool;
  mutable horizon : int; (* exclusive bound of the round in flight *)
  obs : Obs.Registry.t;
  c_processed : Obs.Counter.t;
  c_scheduled : Obs.Counter.t;
  c_cancelled : Obs.Counter.t;
  c_rounds : Obs.Counter.t option; (* sharded engines only *)
  g_pending : Obs.Gauge.t;
  g_ratio : Obs.Gauge.t;
}

type handle = event

exception
  Lookahead_violation of {
    src : int;
    dst : int;
    at : int64;
    horizon : int64;
  }

let () =
  Printexc.register_printer (function
    | Lookahead_violation { src; dst; at; horizon } ->
      Some
        (Printf.sprintf
           "Engine.Lookahead_violation(shard %d -> %d at %Ld, safe horizon \
            %Ld)"
           src dst at horizon)
    | _ -> None)

(* Which shard the current domain is executing, set for the duration of
   one shard's slice of a round ([-1] outside). Routes [schedule]/[post]
   calls made from inside event handlers to the shard that owns the
   caller, without threading a context through every closure. *)
let executing_shard : int Domain.DLS.key = Domain.DLS.new_key (fun () -> -1)

(* An [int64] time as a native int, saturated: heap timestamps are
   non-negative native ints, so comparisons against the result agree
   with comparisons against the original. *)
let to_native l =
  if Int64.compare l (Int64.of_int max_int) >= 0 then max_int
  else if Int64.compare l (Int64.of_int min_int) <= 0 then min_int
  else Int64.to_int l

let create ?(obs = Obs.Registry.default) ?capacity ?(shards = 1) ?lookahead
    ?topo () =
  (* Validate here with engine-phrased errors rather than letting the
     heap's array allocation raise something about Pqueue internals. *)
  let capacity =
    match capacity with
    | None -> 0
    | Some c ->
      if c <= 0 then
        invalid_arg "Engine.create: capacity must be positive when given";
      c
  in
  if shards < 1 then invalid_arg "Engine.create: shards must be >= 1";
  (* The lookahead auto-tuner: with a topology in hand the largest safe
     conservative window is known exactly — the smallest latency of any
     link crossing shards under [Topology.shard_of]. An explicit
     [lookahead] still wins (it must then under-state, never over-state,
     that minimum); a topology with no cross-shard links makes any
     window safe. *)
  let lookahead =
    match lookahead with
    | Some l ->
      if shards > 1 && Int64.compare l 0L <= 0 then
        invalid_arg
          "Engine.create: a sharded engine needs a positive lookahead (the \
           minimum cross-shard event latency)";
      l
    | None ->
      if shards = 1 then 0L
      else begin
        match topo with
        | None ->
          invalid_arg
            "Engine.create: a sharded engine needs either an explicit \
             lookahead or a topology to auto-tune it from"
        | Some topo ->
          (match Topology.cross_shard_lookahead topo ~shards with
           | Some l -> l
           | None -> Int64.max_int)
      end
  in
  { shards =
      Array.init shards (fun id ->
          { id;
            q = Pqueue.create ~capacity ();
            sclock = 0;
            sseq = 0;
            sprocessed = 0;
            sscheduled = 0;
            spopped = 0;
            pub_processed = 0;
            pub_scheduled = 0;
            outbox = Queue.create ();
            c_shard =
              (if shards = 1 then None
               else
                 Some
                   (Obs.Registry.counter obs
                      ~labels:[ ("shard", string_of_int id) ]
                      "net.engine.shard_processed"))
          });
    lookahead = (if shards = 1 then 0L else lookahead);
    window = (if shards = 1 then 0 else to_native lookahead);
    clock = 0;
    nrounds = 0;
    in_round = false;
    horizon = 0;
    obs;
    c_processed = Obs.Registry.counter obs "net.engine.events_processed";
    c_scheduled = Obs.Registry.counter obs "net.engine.events_scheduled";
    c_cancelled = Obs.Registry.counter obs "net.engine.events_cancelled";
    c_rounds =
      (if shards = 1 then None
       else Some (Obs.Registry.counter obs "net.engine.rounds"));
    g_pending = Obs.Registry.gauge obs "net.engine.pending";
    g_ratio = Obs.Registry.gauge obs "net.engine.sim_wall_ratio"
  }

let obs t = t.obs

(* Inside a handler, "now" is the executing event's timestamp — the
   shard's own clock, not the coordinator's round base. Anything built
   on [now] (link serialization, packet timestamps) therefore behaves
   identically at every shard count; the round base is a scheduling
   artifact that must never leak into the simulation. A single-shard
   engine's shard clock is its clock, so it skips the DLS read. *)
let now t =
  if Array.length t.shards = 1 then Int64.of_int t.clock
  else begin
    let i = Domain.DLS.get executing_shard in
    Int64.of_int
      (if i >= 0 && i < Array.length t.shards then t.shards.(i).sclock
       else t.clock)
  end

let now_s t = Int64.to_float (now t) *. 1e-9
let shards t = Array.length t.shards
let lookahead t = t.lookahead
let rounds t = t.nrounds

let shard_now t ~shard =
  if shard < 0 || shard >= Array.length t.shards then
    invalid_arg "Engine.shard_now: unknown shard";
  Int64.of_int t.shards.(shard).sclock

(* The shard a call made right now should act on: the shard this domain
   is executing (inside a handler), else shard 0 — which for the
   single-shard engine is the engine, without a DLS read. *)
let calling_shard t =
  if Array.length t.shards = 1 then t.shards.(0)
  else begin
    let i = Domain.DLS.get executing_shard in
    if i >= 0 && i < Array.length t.shards then t.shards.(i) else t.shards.(0)
  end

let push_event s ~time ev =
  Pqueue.push s.q time s.sseq ev;
  s.sseq <- s.sseq + 1;
  s.sscheduled <- s.sscheduled + 1

let schedule t ~delay f =
  if Int64.compare delay 0L < 0 then invalid_arg "Engine.schedule: negative delay";
  let s = calling_shard t in
  let base = if Array.length t.shards = 1 then t.clock else s.sclock in
  let ev = { f; cancelled = false } in
  push_event s ~time:(Int64.add (Int64.of_int base) delay) ev;
  ev

let schedule_s t ~delay_s f =
  if delay_s < 0.0 then invalid_arg "Engine.schedule_s: negative delay";
  schedule t ~delay:(Int64.of_float (delay_s *. 1e9)) f

let post t ~shard ~at f =
  let n = Array.length t.shards in
  if shard < 0 || shard >= n then invalid_arg "Engine.post: unknown shard";
  let dst = t.shards.(shard) in
  let ev = { f; cancelled = false } in
  let src_id = if n = 1 then -1 else Domain.DLS.get executing_shard in
  if src_id >= 0 && src_id < n && src_id <> shard && t.in_round then begin
    (* Cross-shard, from inside a round: the destination heap belongs to
       another domain right now, so the event must clear the round's
       safe horizon and wait in the outbox for the barrier. *)
    if to_native at < t.horizon then
      raise
        (Lookahead_violation
           { src = src_id; dst = shard; at; horizon = Int64.of_int t.horizon });
    Queue.add (shard, at, ev) t.shards.(src_id).outbox
  end
  else begin
    (* Same shard, or the coordinator between rounds: a direct push.
       Time may not run backwards past the target shard's clock. *)
    let floor =
      if src_id >= 0 && src_id < n then t.shards.(src_id).sclock
      else if n = 1 then t.clock
      else dst.sclock
    in
    if to_native at < floor then
      invalid_arg "Engine.post: event scheduled in the past";
    push_event dst ~time:at ev
  end;
  ev

let cancel ev = ev.cancelled <- true

let every t ~period f =
  if Int64.compare period 0L <= 0 then
    invalid_arg "Engine.every: period must be positive";
  let stopped = ref false in
  let rec tick () =
    if not !stopped then begin
      f ();
      if not !stopped then ignore (schedule t ~delay:period tick)
    end
  in
  ignore (schedule t ~delay:period tick);
  fun () -> stopped := true

let pending t =
  Array.fold_left
    (fun acc s -> acc + Pqueue.length s.q + Queue.length s.outbox)
    0 t.shards

let processed t = Array.fold_left (fun acc s -> acc + s.sprocessed) 0 t.shards
let scheduled t = Array.fold_left (fun acc s -> acc + s.sscheduled) 0 t.shards

let check_invariants t =
  Array.iter
    (fun s ->
      if Pqueue.length s.q <> s.sscheduled - s.spopped then
        invalid_arg "Engine: pending queue inconsistent with scheduled - popped";
      if s.sprocessed > s.spopped then
        invalid_arg "Engine: processed exceeds events popped";
      if not (Queue.is_empty s.outbox) then
        invalid_arg "Engine: outbox not drained at a round barrier";
      if s.sclock < 0 then invalid_arg "Engine: clock negative")
    t.shards;
  if processed t > scheduled t then
    invalid_arg "Engine: processed exceeds events scheduled";
  if t.clock < 0 then invalid_arg "Engine: clock negative"

(* Bring the obs counters up to the shard fields. Runs on the
   coordinator, at each barrier and when [run] returns or raises. *)
let publish t =
  Array.iter
    (fun s ->
      let processed = s.sprocessed - s.pub_processed in
      if processed > 0 then begin
        Obs.Counter.add t.c_processed processed;
        (match s.c_shard with Some c -> Obs.Counter.add c processed | None -> ());
        s.pub_processed <- s.sprocessed
      end;
      let scheduled = s.sscheduled - s.pub_scheduled in
      if scheduled > 0 then begin
        Obs.Counter.add t.c_scheduled scheduled;
        s.pub_scheduled <- s.sscheduled
      end)
    t.shards

(* ---- shard count 1: the sequential engine, unchanged ---- *)

let run_sequential ~limit ?max_events t =
  let s = t.shards.(0) in
  let budget = ref (match max_events with None -> max_int | Some n -> n) in
  while
    !budget > 0 && (not (Pqueue.is_empty s.q)) && Pqueue.min_time s.q <= limit
  do
    let time = Pqueue.min_time s.q in
    let ev = Pqueue.pop_value s.q in
    t.clock <- time;
    s.sclock <- time;
    s.spopped <- s.spopped + 1;
    if ev.cancelled then Obs.Counter.inc t.c_cancelled
    else begin
      decr budget;
      s.sprocessed <- s.sprocessed + 1;
      ev.f ()
    end
  done

(* ---- shard count > 1: conservative-lookahead rounds ---- *)

(* Drain one shard up to the (exclusive) horizon, also honoring the
   [until] bound ([limit]) exactly as the sequential loop does (events
   with [time > until] stay queued). Runs on whichever domain the round
   assigned this shard to; touches only shard-owned state, atomic obs
   counters, and — through handlers calling [post]/[schedule] — this
   shard's own heap and outbox. *)
let process_shard t ~horizon ~limit s =
  Domain.DLS.set executing_shard s.id;
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set executing_shard (-1))
    (fun () ->
      while
        (not (Pqueue.is_empty s.q))
        && Pqueue.min_time s.q < horizon
        && Pqueue.min_time s.q <= limit
      do
        let time = Pqueue.min_time s.q in
        let ev = Pqueue.pop_value s.q in
        s.sclock <- time;
        s.spopped <- s.spopped + 1;
        if ev.cancelled then Obs.Counter.inc t.c_cancelled
        else begin
          s.sprocessed <- s.sprocessed + 1;
          ev.f ()
        end
      done)

(* Merge every outbox into the destination heaps, walking source shards
   in index order so destination sequence numbers — the FIFO tie-break —
   are a pure function of the simulation, not of domain scheduling. *)
let merge_outboxes t =
  Array.iter
    (fun src ->
      while not (Queue.is_empty src.outbox) do
        let dst, at, ev = Queue.pop src.outbox in
        push_event t.shards.(dst) ~time:at ev
      done)
    t.shards

let run_rounds ?pool ~limit ?max_events t =
  let nshards = Array.length t.shards in
  let budget = ref (match max_events with None -> max_int | Some n -> n) in
  let continue = ref true in
  while !continue && !budget > 0 do
    let tmin =
      Array.fold_left (fun acc s -> min acc (Pqueue.min_time s.q)) max_int
        t.shards
    in
    if tmin = max_int && Array.for_all (fun s -> Pqueue.is_empty s.q) t.shards
    then continue := false
    else if tmin > limit then continue := false
    else begin
      t.clock <- tmin;
      let horizon =
        let h = tmin + t.window in
        if h <= tmin then max_int else h
      in
      t.horizon <- horizon;
      let before = processed t in
      t.in_round <- true;
      Fun.protect
        ~finally:(fun () -> t.in_round <- false)
        (fun () ->
          match pool with
          | None ->
            (* The sequential reference for the parallel execution:
               same rounds, same horizons, same merge order, one
               domain. *)
            Array.iter (process_shard t ~horizon ~limit) t.shards
          | Some pool ->
            Par.round pool ~n:nshards ~f:(fun i ->
                process_shard t ~horizon ~limit t.shards.(i)));
      merge_outboxes t;
      t.nrounds <- t.nrounds + 1;
      (match t.c_rounds with Some c -> Obs.Counter.inc c | None -> ());
      publish t;
      (* [max_events] is a round-granular bound here: the budget is
         re-checked at each barrier, never mid-round (a mid-round stop
         would make the cut point scheduling-dependent). *)
      budget := !budget - (processed t - before)
    end
  done;
  t.clock <- Array.fold_left (fun acc s -> Int.max acc s.sclock) t.clock t.shards

let run ?pool ?until ?max_events t =
  let wall0 = Sys.time () in
  let sim0 = t.clock in
  (* Events with [time > until] stay queued. *)
  let limit = match until with None -> max_int | Some l -> to_native l in
  Fun.protect
    ~finally:(fun () -> publish t)
    (fun () ->
      if Array.length t.shards = 1 then run_sequential ~limit ?max_events t
      else run_rounds ?pool ~limit ?max_events t);
  Obs.Gauge.set_int t.g_pending (pending t);
  let wall = Sys.time () -. wall0 in
  let sim_ns = float_of_int (t.clock - sim0) in
  if wall > 0.0 && sim_ns > 0.0 then
    Obs.Gauge.set t.g_ratio (sim_ns /. (wall *. 1e9));
  check_invariants t
