(* The heap holds only ints. Entry [i] of the heap is the triple
   [keys.(3i) = time], [keys.(3i+1) = seq], [keys.(3i+2) = slot] in one
   interleaved int array, so an entry's three words sit together and
   moving one never runs the write barrier. A value lives in
   [vals.(slot)] from its push to its pop: it is written once and read
   once, and sifts move only ints.

   The slot column past the heap ([keys.(3i+2)] for [len <= i < cap])
   is the free-slot pool: a push takes the free slot stored at position
   [len], a pop leaves the root's slot at the position the heap just
   gave up. Free slots hold [empty], an immediate the collector never
   follows, so the array never pins a value that already left the
   heap.

   Timestamps are native 63-bit ints (simulated nanoseconds up to ~146
   years); the [int64] [push] range-checks its argument. *)

type 'a t = {
  mutable keys : int array; (* 3 ints per entry, [cap] entries *)
  mutable vals : 'a array; (* by slot, [cap] slots *)
  mutable len : int;
  (* Padding to 16 words (two cache lines). A sharded engine gives every
     shard its own heap and pushes and pops them on different domains;
     unpadded, the small records of several heaps share a cache line,
     and every event bounces that line between the domains. On the
     AS-scale workload at pool 2 on a 2-vCPU x86 host, this padding
     alone moved the median of six runs from 3.5e7 to 6.9e7
     client-steps/s. *)
  _p0 : int; _p1 : int; _p2 : int; _p3 : int; _p4 : int; _p5 : int;
  _p6 : int; _p7 : int; _p8 : int; _p9 : int; _p10 : int; _p11 : int;
}

(* The content of a free slot. [vals] is built from it, never from a
   caller's value, so it is never a flat float array and every access
   to it takes the generic, tag-checking path. *)
let empty : 'a. unit -> 'a = fun () -> Obj.magic 0

(* Keys for [cap] entries whose free slots, from position [from] on, are
   the slots [from .. cap-1]. *)
let fresh_keys old ~from cap =
  let keys = Array.make (3 * cap) 0 in
  Array.blit old 0 keys 0 (3 * from);
  for i = from to cap - 1 do
    keys.((3 * i) + 2) <- i
  done;
  keys

let create ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Pqueue.create: negative capacity";
  { keys = fresh_keys [||] ~from:0 capacity;
    vals = Array.make capacity (empty ());
    len = 0;
    _p0 = 0; _p1 = 0; _p2 = 0; _p3 = 0; _p4 = 0; _p5 = 0;
    _p6 = 0; _p7 = 0; _p8 = 0; _p9 = 0; _p10 = 0; _p11 = 0
  }

let is_empty q = q.len = 0
let length q = q.len

(* The engine reads the next event's time here before every pop (and
   the PDES round scheduler polls every shard's minimum each round);
   returning the native-int timestamp directly keeps both
   allocation-free (no [Some (int64, _, _)] tuple per peek). *)
let min_time q = if q.len = 0 then max_int else Array.unsafe_get q.keys 0

(* Grow a full heap to twice its capacity (at least 16): every slot is
   in use, so the new slots are the whole free pool. *)
let grow q =
  let cap = q.len in
  let ncap = max 16 (2 * cap) in
  q.keys <- fresh_keys q.keys ~from:cap ncap;
  let nv = Array.make ncap (empty ()) in
  Array.blit q.vals 0 nv 0 cap;
  q.vals <- nv

let push_int q t seq value =
  if q.len = Array.length q.vals then grow q;
  let keys = q.keys in
  let n = q.len in
  let slot = Array.unsafe_get keys ((3 * n) + 2) in
  Array.unsafe_set q.vals slot value;
  q.len <- n + 1;
  (* Sift up: move the hole from [n] towards the root past every parent
     that sorts after (t, seq). *)
  let i = ref n in
  let moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let tp = Array.unsafe_get keys (3 * p) in
    if t < tp || (t = tp && seq < Array.unsafe_get keys ((3 * p) + 1)) then begin
      let h = 3 * !i and hp = 3 * p in
      Array.unsafe_set keys h tp;
      Array.unsafe_set keys (h + 1) (Array.unsafe_get keys (hp + 1));
      Array.unsafe_set keys (h + 2) (Array.unsafe_get keys (hp + 2));
      i := p
    end
    else moving := false
  done;
  let h = 3 * !i in
  Array.unsafe_set keys h t;
  Array.unsafe_set keys (h + 1) seq;
  Array.unsafe_set keys (h + 2) slot

let native time =
  let t = Int64.to_int time in
  if Int64.of_int t <> time then invalid_arg "Pqueue.push: time out of range";
  t

let push q time seq value = push_int q (native time) seq value

let pop_value q =
  if q.len = 0 then invalid_arg "Pqueue.pop_value: empty";
  let keys = q.keys in
  let root_slot = Array.unsafe_get keys 2 in
  let value = Array.unsafe_get q.vals root_slot in
  Array.unsafe_set q.vals root_slot (empty ());
  let n = q.len - 1 in
  q.len <- n;
  (* The last entry leaves position [n]; the root's slot takes its place
     in the free pool, and the last entry sifts down from the root. *)
  let last = 3 * n in
  let t = Array.unsafe_get keys last
  and seq = Array.unsafe_get keys (last + 1)
  and slot = Array.unsafe_get keys (last + 2) in
  Array.unsafe_set keys (last + 2) root_slot;
  if n > 0 then begin
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let l = (2 * !i) + 1 in
      if l >= n then moving := false
      else begin
        (* [c]: the smaller child. *)
        let c =
          let r = l + 1 in
          if r < n then begin
            let tl = Array.unsafe_get keys (3 * l)
            and tr = Array.unsafe_get keys (3 * r) in
            if
              tr < tl
              || tr = tl
                 && Array.unsafe_get keys ((3 * r) + 1)
                    < Array.unsafe_get keys ((3 * l) + 1)
            then r
            else l
          end
          else l
        in
        let hc = 3 * c in
        let tc = Array.unsafe_get keys hc in
        if tc < t || (tc = t && Array.unsafe_get keys (hc + 1) < seq) then begin
          let h = 3 * !i in
          Array.unsafe_set keys h tc;
          Array.unsafe_set keys (h + 1) (Array.unsafe_get keys (hc + 1));
          Array.unsafe_set keys (h + 2) (Array.unsafe_get keys (hc + 2));
          i := c
        end
        else moving := false
      end
    done;
    let h = 3 * !i in
    Array.unsafe_set keys h t;
    Array.unsafe_set keys (h + 1) seq;
    Array.unsafe_set keys (h + 2) slot
  end;
  value

let pop_min q =
  if q.len = 0 then None
  else begin
    let time = Array.unsafe_get q.keys 0
    and seq = Array.unsafe_get q.keys 1 in
    let value = pop_value q in
    Some (Int64.of_int time, seq, value)
  end
