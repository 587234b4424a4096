type t = {
  master : Master_key.t;
  mutable stop_tick : unit -> unit;
  mutable crashed : bool;
  mutable count : int;
  mutable missed : int;
}

let tick t =
  (* The schedule itself is wall time (the operator's cron keeps
     running); a crashed box merely fails to execute it. *)
  if t.crashed then t.missed <- t.missed + 1
  else begin
    Master_key.rotate t.master;
    t.count <- t.count + 1
  end

let schedule engine master ?(every = Protocol.master_key_lifetime) () =
  let t =
    { master;
      stop_tick = (fun () -> ());
      crashed = false;
      count = 0;
      missed = 0
    }
  in
  t.stop_tick <- Net.Engine.every engine ~period:every (fun () -> tick t);
  t

let stop t = t.stop_tick ()
let rotations t = t.count
let crash t = t.crashed <- true

let restart t =
  if t.crashed then begin
    t.crashed <- false;
    (* Catch up: epochs are positions on the shared timeline, not a
       private counter — a restarted box must agree with its peers (and
       with clients' grant-age clocks) about the current epoch, so
       every rotation missed while down is applied now. *)
    for _ = 1 to t.missed do
      Master_key.rotate t.master;
      t.count <- t.count + 1
    done;
    t.missed <- 0
  end
