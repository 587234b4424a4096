(* Monotonic wall clock in integer nanoseconds (CLOCK_MONOTONIC through
   bechamel's stub). Every wall time the benchmark reports is read here,
   never from the simulator's own clock. *)

let now () = Int64.to_int (Monotonic_clock.now ())
let to_s ns = float_of_int ns *. 1e-9
let to_ms ns = float_of_int ns *. 1e-6
