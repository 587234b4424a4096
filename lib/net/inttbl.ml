(* Open addressing with linear probing over a power-of-two array of
   cells, kept at most half full. A key is found by Fibonacci hashing:
   the top bits of the key times an odd 62-bit constant near 2^63/(2φ),
   so keys that differ only in their high bits (addresses of different
   /16s with the same host part) still land apart. *)

type 'a t = {
  mutable keys : int array; (* -1 marks a free cell *)
  mutable vals : 'a array;
  mutable size : int;
  mutable shift : int; (* 63 - log2 (Array.length keys) *)
}

(* A free cell's value: an immediate, so [vals] is never a flat float
   array and holds nothing the collector follows. *)
let free : 'a. unit -> 'a = fun () -> Obj.magic 0

let make ~bits =
  let cells = 1 lsl bits in
  { keys = Array.make cells (-1);
    vals = Array.make cells (free ());
    size = 0;
    shift = 63 - bits
  }

let create n =
  let rec bits b = if 1 lsl b >= 2 * n then b else bits (b + 1) in
  make ~bits:(bits 3)

let home t k = (k * 0x278dde6e5fd29f05) lsr t.shift

(* The cell holding [k], or the free cell where it would go. *)
let cell t k =
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home t k) in
  while
    let k' = Array.unsafe_get keys !i in
    k' <> k && k' >= 0
  do
    i := (!i + 1) land mask
  done;
  !i

let find t k ~default =
  if k < 0 then default
  else begin
    let i = cell t k in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
    else default
  end

let rec replace t k v =
  if k < 0 then invalid_arg "Inttbl.replace: negative key";
  let i = cell t k in
  if t.keys.(i) = k then t.vals.(i) <- v
  else if 2 * (t.size + 1) > Array.length t.keys then begin
    let old_keys = t.keys and old_vals = t.vals in
    let bigger = make ~bits:(64 - t.shift) in
    t.keys <- bigger.keys;
    t.vals <- bigger.vals;
    t.shift <- bigger.shift;
    t.size <- 0;
    Array.iteri (fun j k' -> if k' >= 0 then replace t k' old_vals.(j)) old_keys;
    replace t k v
  end
  else begin
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.size <- t.size + 1
  end

let fold f t acc =
  let acc = ref acc in
  Array.iteri (fun i k -> if k >= 0 then acc := f k t.vals.(i) !acc) t.keys;
  !acc
