(* An [Atomic.t] rather than a mutable int: pre-resolved hot-path
   counters are bumped from pool domains during sharded-engine rounds
   (lib/par), and a plain-field increment would both race and lose
   counts. An uncontended [Atomic.incr] is a single lock-prefixed add —
   still nanosecond-scale, still branch-free — and the totals stay exact
   under any interleaving, which the parallel-equivalence tests rely
   on. *)

type t = int Atomic.t

let create () = Atomic.make 0
let inc t = Atomic.incr t

let add t n =
  if n < 0 then invalid_arg "Obs.Counter.add: negative increment";
  ignore (Atomic.fetch_and_add t n)

let value t = Atomic.get t
