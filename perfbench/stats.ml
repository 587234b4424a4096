(* Growable float sample buffers and nearest-rank order statistics. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let length t = t.n

(* Frees the samples, keeping the count; no percentile may follow. *)
let release t = t.a <- [||]

(* Nearest-rank percentile for [p] in (0, 100]; nan without samples. *)
let percentile p t =
  if t.n = 0 then nan
  else begin
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.n)) - 1 in
    s.(max 0 (min (t.n - 1) k))
  end

let median t = percentile 50.0 t

let median_of xs =
  let t = create () in
  List.iter (add t) xs;
  median t
