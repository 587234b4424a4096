(* One measured phase of a workload. An op is the workload's unit of
   work: an echoed request on fig1-steady, a completed flow on
   fig1-churn, a client-step on as-scale. [wall_ns] is the wall time
   spent inside the engine calls that did the ops. *)

type t = {
  mutable ops : int;
  mutable attempted : int;
  mutable failed : int;
  mutable wall_ns : int;
  mutable events : int;
  mutable rounds : int;
  mutable steps : int;
  lat_ms : Stats.t;  (* one sample per op; per grid step on as-scale *)
  pending : Stats.t;  (* Engine.pending, sampled as work starts *)
  rates : Stats.t;  (* ops per wall second of each short window *)
}

let create () =
  { ops = 0;
    attempted = 0;
    failed = 0;
    wall_ns = 0;
    events = 0;
    rounds = 0;
    steps = 0;
    lat_ms = Stats.create ();
    pending = Stats.create ();
    rates = Stats.create ()
  }

let add_rate p ~ops ~wall_ns =
  if wall_ns > 0 then Stats.add p.rates (float_of_int ops /. Clock.to_s wall_ns)

(* The median over short windows, so a stall in part of the run moves
   it less than it moves the run's mean. *)
let ops_per_s p =
  if Stats.length p.rates > 0 then Stats.median p.rates
  else float_of_int p.ops /. Clock.to_s (max 1 p.wall_ns)
let ns_per_op p = float_of_int p.wall_ns /. float_of_int (max 1 p.ops)

(* Output checks that failed during the run; any entry fails it. *)
let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt
