(* A hand-rolled fixed-size domain pool whose only mechanism is the
   claim-counter round. The submitter publishes the round's task
   function, then one atomic word holding the task count and the next
   unclaimed index; every participant (workers and the submitter) takes
   indices from that word with [Atomic.fetch_and_add] until it claims an
   index past the count. Because the count travels in the same word as
   the index, a claim is self-describing: a worker that was slow to
   notice the end of round k and claims after the submitter reset the
   word for round k+1 receives a valid round-(k+1) index, never a stale
   one, and the job it then reads is round k+1's (a round cannot end
   while one of its claimed tasks is still running). Determinism comes
   from indexing, not scheduling: each task writes only its own slot.

   Between rounds a worker spins a bounded number of times on the word,
   then parks on [wake]; the submitter likewise spins, then parks on
   [finished], waiting for the last task. Spinning pays only when every
   participant has a core of its own, so an oversubscribed pool (more
   domains than [Domain.recommended_domain_count]) parks at once. The
   park/wake hand-offs are Dekker-style on sequentially consistent
   atomics: the sleeper announces itself before its final re-check under
   the mutex, the waker publishes before it reads the announcement, so
   at least one of them sees the other. *)

let index_bits = 24
let index_mask = (1 lsl index_bits) - 1

(* Headroom for the over-claims (at most one per participant per round)
   that push the index past the count without overflowing the field. *)
let max_tasks = index_mask - 4096

(* Spin iterations before parking. Each is one [Domain.cpu_relax]
   pause (about 28 ns on the 2-vCPU x86 host the sharded engine was
   tuned on), so a spinning domain busy-waits for at most about half a
   millisecond: long enough to cover the spread between one round's
   shard tasks and the coordinator's work between two rounds, short
   enough that an idle pool goes quiet. With 2 000 spins a quarter of
   the AS-scale rounds ended in a park on both sides. *)
let spin_limit = 20_000

type pool = {
  size : int;
  spin : int;  (* [spin_limit], or 0 on an oversubscribed pool *)
  mutable workers : unit Domain.t array;
  claim : int Atomic.t;  (* (task count lsl index_bits) lor next index *)
  remaining : int Atomic.t;  (* tasks of the round in flight not yet done *)
  mutable job : int -> unit;
  mutable failure : (int * exn) option;  (* lowest-indexed, under [m] *)
  m : Mutex.t;
  wake : Condition.t;
  finished : Condition.t;
  sleepers : int Atomic.t;  (* workers parked, or about to park, on [wake] *)
  waiting : bool Atomic.t;  (* the submitter is parked on [finished] *)
  stop : bool Atomic.t;
}

let size t = t.size

let has_work c = c land index_mask < c lsr index_bits

(* Claim and run tasks until an index past the count comes back. *)
let rec drain t =
  let c = Atomic.fetch_and_add t.claim 1 in
  let i = c land index_mask in
  if i < c lsr index_bits then begin
    (try t.job i
     with e ->
       Mutex.lock t.m;
       (match t.failure with
        | Some (j, _) when j < i -> ()
        | _ -> t.failure <- Some (i, e));
       Mutex.unlock t.m);
    if Atomic.fetch_and_add t.remaining (-1) = 1 && Atomic.get t.waiting then begin
      Mutex.lock t.m;
      Condition.broadcast t.finished;
      Mutex.unlock t.m
    end;
    drain t
  end

let rec spin_until ready n =
  if ready () then true
  else if n <= 0 then false
  else begin
    Domain.cpu_relax ();
    spin_until ready (n - 1)
  end

let rec worker_loop t =
  let ready () = Atomic.get t.stop || has_work (Atomic.get t.claim) in
  if not (spin_until ready t.spin) then begin
    Atomic.incr t.sleepers;
    Mutex.lock t.m;
    while not (ready ()) do
      Condition.wait t.wake t.m
    done;
    Mutex.unlock t.m;
    Atomic.decr t.sleepers
  end;
  if not (Atomic.get t.stop) then begin
    drain t;
    worker_loop t
  end

let create ~size () =
  if size < 1 then invalid_arg "Par.create: size must be >= 1";
  let t =
    { size;
      spin = (if size <= Domain.recommended_domain_count () then spin_limit else 0);
      workers = [||];
      claim = Atomic.make 0;
      remaining = Atomic.make 0;
      job = ignore;
      failure = None;
      m = Mutex.create ();
      wake = Condition.create ();
      finished = Condition.create ();
      sleepers = Atomic.make 0;
      waiting = Atomic.make false;
      stop = Atomic.make false
    }
  in
  t.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let shutdown t =
  Atomic.set t.stop true;
  Mutex.lock t.m;
  Condition.broadcast t.wake;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ~size f =
  let t = create ~size () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

(* One synchronization round: n indexed tasks, full barrier on return.
   The job, the failure slot and the remaining count are set before the
   claim word is reset, so any claim on the new word finds them. *)
let round t ~n ~f =
  if n < 0 then invalid_arg "Par.round: n must be >= 0";
  if n > max_tasks then invalid_arg "Par.round: too many tasks";
  if n > 0 then begin
    t.job <- f;
    t.failure <- None;
    Atomic.set t.remaining n;
    Atomic.set t.claim (n lsl index_bits);
    if Atomic.get t.sleepers > 0 then begin
      Mutex.lock t.m;
      Condition.broadcast t.wake;
      Mutex.unlock t.m
    end;
    drain t;
    let done_ () = Atomic.get t.remaining = 0 in
    if not (spin_until done_ t.spin) then begin
      Atomic.set t.waiting true;
      Mutex.lock t.m;
      while not (done_ ()) do
        Condition.wait t.finished t.m
      done;
      Mutex.unlock t.m;
      Atomic.set t.waiting false
    end;
    t.job <- ignore;
    match t.failure with
    | Some (_, e) ->
      t.failure <- None;
      raise e
    | None -> ()
  end

let recommended () = Domain.recommended_domain_count ()

(* ---- [both]: the process-wide helper domain ----

   One helper domain serves every [both] call in the process. Its life
   is one atomic state word:

     dead | idle --claim--> claimed --post--> posted
     posted --the helper takes the job--> running --f ran--> finished
     posted --the caller takes f back--> claimed --f ran--> idle
     finished --the claimant has taken f's result--> idle
     idle --the helper, after [idle_window] without a job--> dead

   A caller claims the helper by moving the word from [idle] or [dead]
   to [claimed] with one compare-and-set; from [dead] it also joins the
   exited helper and spawns a new one. Any other state means another
   caller holds the helper, so this caller runs both halves itself:
   [both] has no single-submitter rule. The helper takes a posted job
   with a compare-and-set too, and so does a caller that finishes [g]
   while the job is still posted: exactly one of them runs [f], and a
   helper that is slow to wake (a fresh spawn, or a domain descheduled
   on a shared core) costs the caller nothing. A caller that finds [f]
   running spins a bounded number of pauses, then parks on [done_] until
   the helper signals, with the same Dekker-style hand-off as a pool's
   [finished]. The helper leaves only by moving [idle] to [dead] itself,
   so a claim and an exit cannot both win. The job and its result cell
   are plain refs published by the atomic hand-offs around them. *)

let dead = 0
let idle = 1
let claimed = 2
let posted = 3
let running = 4
let finished = 5

(* How long an idle helper spins for the next job before it exits.
   Measured on a 2-vCPU x86 host: a cold [Domain.spawn] + [join] costs
   0.1–0.47 ms and one 512-bit CRT half 0.55–0.69 ms, and fig1-churn's
   RSA-1024 private operations arrive about a millisecond apart, so a
   few milliseconds keep the helper hot across a burst of new flows and
   let it go soon after, before it can tax a workload that has stopped
   decrypting (every minor collection stops every live domain). In
   nanoseconds of the monotonic clock. *)
let idle_window = 5_000_000

let cores = recommended ()
let state = Atomic.make dead
let nop () = ()
let job = ref nop
let helper : unit Domain.t option ref = ref None
let m = Mutex.create ()
let done_ = Condition.create ()
let waiting = Atomic.make false  (* a caller is parked on [done_] *)

let c_spawns = Obs.Registry.counter Obs.Registry.default "par.helper.spawns"
let c_steals = Obs.Registry.counter Obs.Registry.default "par.helper.steals"

let now () = Int64.to_int (Monotonic_clock.now ())

(* Wait for a posted job and take it; [false] once the helper has given
   itself up. The clock is read every 64 pauses. *)
let rec await_job deadline spins =
  let s = Atomic.get state in
  if s = posted && Atomic.compare_and_set state posted running then true
  else if
    s = idle && spins land 63 = 0
    && now () > deadline
    && Atomic.compare_and_set state idle dead
  then false
  else begin
    Domain.cpu_relax ();
    await_job deadline (spins + 1)
  end

(* The helper drops the job before running it, so it pins nothing of
   the last call once that call has returned. *)
let rec serve () =
  if await_job (now () + idle_window) 1 then begin
    let f = !job in
    job := nop;
    f ();
    Atomic.set state finished;
    if Atomic.get waiting then begin
      Mutex.lock m;
      Condition.broadcast done_;
      Mutex.unlock m
    end;
    serve ()
  end

(* [Some respawn] when this caller now holds the helper. A failed
   compare-and-set means the word moved: to [dead] if the helper just
   exited (claim again), otherwise to another caller. *)
let rec claim () =
  let s = Atomic.get state in
  if s <> idle && s <> dead then None
  else if Atomic.compare_and_set state s claimed then Some (s = dead)
  else claim ()

(* Hand the posted job to the live helper, or to a fresh one. *)
let hand_off ~respawn =
  if not respawn then begin
    Atomic.set state posted;
    true
  end
  else begin
    Option.iter Domain.join !helper;
    helper := None;
    Atomic.set state posted;
    match Domain.spawn serve with
    | d ->
      helper := Some d;
      Obs.Counter.inc c_spawns;
      true
    | exception _ ->
      job := nop;
      Atomic.set state dead;
      false
  end

(* The helper is running [f]: spin, then park until it has finished. *)
let await_finished () =
  let ready () = Atomic.get state = finished in
  if not (spin_until ready spin_limit) then begin
    Atomic.set waiting true;
    Mutex.lock m;
    while not (ready ()) do
      Condition.wait done_ m
    done;
    Mutex.unlock m;
    Atomic.set waiting false
  end

let run f = match f () with v -> Ok v | exception e -> Error e

let settle fr gr =
  match (fr, gr) with
  | Error e, _ | Ok _, Error e -> raise e
  | Ok a, Ok b -> (a, b)

let inline f g =
  let fr = run f in
  settle fr (run g)

let both f g =
  match if cores >= 2 then claim () else None with
  | None -> inline f g
  | Some respawn ->
    let fr = ref (Error Exit) in
    job := (fun () -> fr := run f);
    if not (hand_off ~respawn) then inline f g
    else begin
      let gr = run g in
      let fr =
        if Atomic.compare_and_set state posted claimed then begin
          job := nop;
          Obs.Counter.inc c_steals;
          run f
        end
        else begin
          await_finished ();
          !fr
        end
      in
      Atomic.set state idle;
      settle fr gr
    end

let helper_live () = Atomic.get state <> dead
