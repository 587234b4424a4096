(* Atomic for the same reason as [Counter]: a handler on a pool domain
   may move a gauge while another domain reads and exports it. [set] is
   a plain atomic store. *)

type t = float Atomic.t

let create () = Atomic.make 0.0
let set t v = Atomic.set t v

let set_int t v = Atomic.set t (float_of_int v)
let value t = Atomic.get t
