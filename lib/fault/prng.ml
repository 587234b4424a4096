(* SplitMix64 (Steele, Lea & Flood 2014): one 64-bit state, a fixed
   odd increment, and a finalizer that is a bijection — the standard
   seeding/splitting PRNG. Not cryptographic; fault injection only. *)

type t = { root : int64; mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_int64 seed =
  let root = mix64 seed in
  { root; state = root }

let create ~seed = of_int64 (Int64.of_int seed)

let env_seed var ~default =
  match Sys.getenv_opt var with
  | None -> default
  | Some s ->
    (match int_of_string_opt s with
     | Some n -> n
     | None -> Printf.ksprintf failwith "%s must be an integer, got %S" var s)

let bits t =
  t.state <- Int64.add t.state golden;
  mix64 t.state

(* FNV-1a over the label bytes: stable, order-insensitive stream
   derivation. *)
let hash_label label =
  String.fold_left
    (fun acc c ->
      Int64.mul (Int64.logxor acc (Int64.of_int (Char.code c))) 0x100000001B3L)
    0xCBF29CE484222325L label

let split t ~label =
  (* Children are derived from the parent's ROOT, not its stream
     position, so split order (e.g. hashtable iteration over links)
     cannot change any child's sequence. *)
  of_int64 (mix64 (Int64.logxor t.root (hash_label label)))

let float t =
  (* top 53 bits -> [0, 1) *)
  Int64.to_float (Int64.shift_right_logical (bits t) 11)
  *. (1.0 /. 9007199254740992.0)

let bool t ~p = p > 0.0 && float t < p

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (bits t) 1) (Int64.of_int bound))

let int64 t bound =
  if Int64.compare bound 0L <= 0 then
    invalid_arg "Prng.int64: bound must be positive";
  Int64.rem (Int64.shift_right_logical (bits t) 1) bound

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = float t in
  (* u in [0,1); 1-u in (0,1], so log is finite *)
  -.mean *. log (1.0 -. u)
