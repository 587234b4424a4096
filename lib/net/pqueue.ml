(* The heap is three parallel arrays instead of an array of records:
   priorities live in unboxed [int] arrays (no per-event record or boxed
   int64 retained per entry), values in a plain ['a array]. Timestamps are
   stored as native 63-bit ints — simulated nanoseconds up to ~146 years,
   range-checked on push. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable vals : 'a array;
      (* [[||]] until the first push provides a fill value; afterwards
         always the same length as [times] *)
  mutable len : int;
  (* Padding to 16 words (two cache lines). A sharded engine gives every
     shard its own heap and pushes and pops them on different domains;
     unpadded, the 5-word records of several heaps share a cache line,
     and every event bounces that line between the domains. On the
     AS-scale workload at pool 2 on a 2-vCPU x86 host, this padding
     alone moved the median of six runs from 3.5e7 to 6.9e7
     client-steps/s. *)
  _p0 : int; _p1 : int; _p2 : int; _p3 : int; _p4 : int; _p5 : int;
  _p6 : int; _p7 : int; _p8 : int; _p9 : int; _p10 : int;
}

let create ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Pqueue.create: negative capacity";
  { times = Array.make capacity 0;
    seqs = Array.make capacity 0;
    vals = [||];
    len = 0;
    _p0 = 0; _p1 = 0; _p2 = 0; _p3 = 0; _p4 = 0; _p5 = 0;
    _p6 = 0; _p7 = 0; _p8 = 0; _p9 = 0; _p10 = 0
  }

let is_empty q = q.len = 0
let length q = q.len

(* The engine reads the next event's time here before every pop (and
   the PDES round scheduler polls every shard's minimum each round);
   returning the native-int timestamp directly keeps both
   allocation-free (no [Some (int64, _, _)] tuple per peek). *)
let min_time q = if q.len = 0 then max_int else q.times.(0)

let clear q =
  (* Keep the arrays (capacity is the point of reuse) but drop value
     references so cleared events can be collected; an empty [vals] is
     re-made by the next push. *)
  q.vals <- [||];
  q.len <- 0

(* Ensure room for one more entry, using [value] to fill fresh value
   slots. *)
let ensure q value =
  let cap = Array.length q.times in
  if q.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let nt = Array.make ncap 0 and ns = Array.make ncap 0 in
    Array.blit q.times 0 nt 0 q.len;
    Array.blit q.seqs 0 ns 0 q.len;
    q.times <- nt;
    q.seqs <- ns;
    let nv = Array.make ncap value in
    Array.blit q.vals 0 nv 0 q.len;
    q.vals <- nv
  end
  else if Array.length q.vals < cap then begin
    (* First push after [create ~capacity] or [clear]. *)
    let nv = Array.make cap value in
    Array.blit q.vals 0 nv 0 q.len;
    q.vals <- nv
  end

let less q i j =
  let ti = q.times.(i) and tj = q.times.(j) in
  ti < tj || (ti = tj && q.seqs.(i) < q.seqs.(j))

let swap q i j =
  let t = q.times.(i) in
  q.times.(i) <- q.times.(j);
  q.times.(j) <- t;
  let s = q.seqs.(i) in
  q.seqs.(i) <- q.seqs.(j);
  q.seqs.(j) <- s;
  let v = q.vals.(i) in
  q.vals.(i) <- q.vals.(j);
  q.vals.(j) <- v

let push q time seq value =
  let ti = Int64.to_int time in
  if Int64.of_int ti <> time then invalid_arg "Pqueue.push: time out of range";
  ensure q value;
  q.times.(q.len) <- ti;
  q.seqs.(q.len) <- seq;
  q.vals.(q.len) <- value;
  q.len <- q.len + 1;
  (* Sift up. *)
  let i = ref (q.len - 1) in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less q !i parent then begin
      swap q !i parent;
      i := parent
    end
    else continue := false
  done

let pop_value q =
  if q.len = 0 then invalid_arg "Pqueue.pop_value: empty";
  let value = q.vals.(0) in
  q.len <- q.len - 1;
  if q.len > 0 then begin
    q.times.(0) <- q.times.(q.len);
    q.seqs.(0) <- q.seqs.(q.len);
    q.vals.(0) <- q.vals.(q.len);
    (* The freed tail slot keeps a duplicate of the root reference, so
       the array never pins a value that already left the heap. *)
    q.vals.(q.len) <- q.vals.(0);
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i in
      if l < q.len && less q l !smallest then smallest := l;
      if r < q.len && less q r !smallest then smallest := r;
      if !smallest <> !i then begin
        swap q !i !smallest;
        i := !smallest
      end
      else continue := false
    done
  end;
  value

let pop_min q =
  if q.len = 0 then None
  else begin
    let time = q.times.(0) and seq = q.seqs.(0) in
    let value = pop_value q in
    Some (Int64.of_int time, seq, value)
  end
