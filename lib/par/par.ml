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
