type config = {
  base : int64;
  cap : int64;
  multiplier : float;
  jitter : float;
}

let default =
  { base = 50_000_000L; cap = 5_000_000_000L; multiplier = 2.0; jitter = 0.5 }

let validate c =
  if Int64.compare c.base 0L <= 0 then
    invalid_arg "Backoff: base must be positive";
  if Int64.compare c.cap c.base < 0 then
    invalid_arg "Backoff: cap must be >= base";
  if c.multiplier < 1.0 then invalid_arg "Backoff: multiplier must be >= 1.0";
  if c.jitter < 0.0 || c.jitter >= 1.0 then
    invalid_arg "Backoff: jitter must be in [0, 1)"

type t = { config : config; prng : Fault.Prng.t; mutable attempts : int }

let create ?(config = default) ~prng () =
  validate config;
  { config; prng; attempts = 0 }

let next t =
  let c = t.config in
  (* Capped exponential term for this attempt, computed in float to dodge
     int64 overflow on large attempt counts, then clamped. *)
  let d =
    let f = Int64.to_float c.base *. (c.multiplier ** float_of_int t.attempts) in
    if f >= Int64.to_float c.cap then c.cap else Int64.of_float f
  in
  t.attempts <- t.attempts + 1;
  (* Subtract a truncated jittered slice so the result stays within
     (d * (1 - jitter), d] — never zero, never above the cap. *)
  let slice =
    Int64.of_float (c.jitter *. Fault.Prng.float t.prng *. Int64.to_float d)
  in
  Int64.sub d slice

let attempts t = t.attempts
