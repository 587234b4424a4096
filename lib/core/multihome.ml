type strategy =
  | First
  | Round_robin
  | Weighted of (Net.Ipaddr.t * float) list
  | Prefer of Net.Ipaddr.t

(* Avoidance windows after a failure: 30 s, doubling per consecutive
   failure up to 240 s, with up to half of each window randomized away. *)
let base = 30_000_000_000L
let cap = 240_000_000_000L
let multiplier = 2.0
let jitter = 0.5

type t = {
  strategy : strategy;
  rng : int -> string;
  mutable counter : int;
  failed : (Net.Ipaddr.t, int64) Hashtbl.t; (* address -> backoff expiry *)
  strikes : (Net.Ipaddr.t, int) Hashtbl.t; (* consecutive failures *)
}

let create ?(strategy = Round_robin) ~rng () =
  { strategy;
    rng;
    counter = 0;
    failed = Hashtbl.create 4;
    strikes = Hashtbl.create 4
  }

let random_unit t =
  (* 24 random bits -> [0, 1). *)
  let s = t.rng 3 in
  float_of_int
    ((Char.code s.[0] lsl 16) lor (Char.code s.[1] lsl 8) lor Char.code s.[2])
  /. 16777216.0

let strikes t addr =
  Option.value ~default:0 (Hashtbl.find_opt t.strikes addr)

let mark_failed t addr ~now =
  let k = strikes t addr + 1 in
  Hashtbl.replace t.strikes addr k;
  (* Capped exponential window for the k-th consecutive failure ... *)
  let d =
    let f = Int64.to_float base *. (multiplier ** float_of_int (k - 1)) in
    if f >= Int64.to_float cap then cap else Int64.of_float f
  in
  (* ... minus a truncated jittered slice, so a fleet of clients that
     lost the same neutralizer together does not retry in lockstep. The
     result stays in (d * (1 - jitter), d]. *)
  let slice = Int64.of_float (jitter *. random_unit t *. Int64.to_float d) in
  Hashtbl.replace t.failed addr (Int64.add now (Int64.sub d slice))

let note_success t addr =
  Hashtbl.remove t.failed addr;
  Hashtbl.remove t.strikes addr

let clear_failures t =
  Hashtbl.reset t.failed;
  Hashtbl.reset t.strikes

let usable t ~now addr =
  match Hashtbl.find_opt t.failed addr with
  | None -> true
  | Some until -> Int64.compare now until >= 0

let choose t ~now addrs =
  let live = List.filter (usable t ~now) addrs in
  let pool = if live = [] then addrs else live in
  match pool with
  | [] -> None
  | [ a ] -> Some a
  | pool ->
    (match t.strategy with
     | First -> Some (List.hd pool)
     | Round_robin ->
       let i = t.counter mod List.length pool in
       t.counter <- t.counter + 1;
       Some (List.nth pool i)
     | Prefer a -> if List.mem a pool then Some a else Some (List.hd pool)
     | Weighted weights ->
       let weighted =
         List.filter_map
           (fun a ->
             List.assoc_opt a weights |> Option.map (fun w -> (a, Float.max 0.0 w)))
           pool
       in
       let weighted = if weighted = [] then List.map (fun a -> (a, 1.0)) pool else weighted in
       let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weighted in
       if total <= 0.0 then Some (fst (List.hd weighted))
       else begin
         let x = random_unit t *. total in
         let rec pick acc = function
           | [] -> fst (List.hd weighted)
           | (a, w) :: rest ->
             if x < acc +. w then a else pick (acc +. w) rest
         in
         Some (pick 0.0 weighted)
       end)
