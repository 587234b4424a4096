type t = {
  sub_bits : int;
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
  mutable buckets : int array;
}

let create ?(sub_bits = 3) () =
  if sub_bits < 1 || sub_bits > 8 then
    invalid_arg "Obs.Histogram.create: sub_bits must be in [1, 8]";
  { sub_bits;
    count = 0;
    sum = 0;
    min_v = max_int;
    max_v = 0;
    buckets = Array.make (2 lsl sub_bits) 0
  }

let sub_bits t = t.sub_bits

let msb_pos v =
  (* position of the highest set bit; v > 0 *)
  let r = ref (-1) in
  let v = ref v in
  while !v > 0 do
    incr r;
    v := !v lsr 1
  done;
  !r

let index_of_value ~sub_bits v =
  if v < 0 then invalid_arg "Obs.Histogram: negative value";
  if v < 1 lsl sub_bits then v
  else begin
    let m = msb_pos v in
    ((m - sub_bits + 1) lsl sub_bits) + (v lsr (m - sub_bits)) - (1 lsl sub_bits)
  end

let bounds_of_index ~sub_bits i =
  if i < 0 then invalid_arg "Obs.Histogram: negative index";
  if i < 1 lsl sub_bits then (i, i)
  else begin
    let octave = (i lsr sub_bits) - 1 in
    let off = i land ((1 lsl sub_bits) - 1) in
    let lower = ((1 lsl sub_bits) + off) lsl octave in
    (lower, lower + (1 lsl octave) - 1)
  end

let ensure_capacity t i =
  let n = Array.length t.buckets in
  if i >= n then begin
    let n' = max (i + 1) (2 * n) in
    let b = Array.make n' 0 in
    Array.blit t.buckets 0 b 0 n;
    t.buckets <- b
  end

let add t v =
  if v < 0 then invalid_arg "Obs.Histogram.add: negative value";
  let i = index_of_value ~sub_bits:t.sub_bits v in
  ensure_capacity t i;
  t.buckets.(i) <- t.buckets.(i) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = t.max_v

let bucket_quantile ~sub_bits ~count ~min_value ~max_value buckets q =
  if q < 0.0 || q > 1.0 then invalid_arg "Obs.Histogram.quantile: q outside [0, 1]";
  if count = 0 then nan
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int count))) in
    let rec go cum = function
      | [] -> float_of_int max_value
      | (i, c) :: rest ->
        if cum + c >= rank then begin
          let lo, hi = bounds_of_index ~sub_bits i in
          Float.min (float_of_int max_value)
            (Float.max (float_of_int min_value) (float_of_int (lo + hi) /. 2.0))
        end
        else go (cum + c) rest
    in
    go 0 buckets
  end

let merge ~into src =
  if into.sub_bits <> src.sub_bits then
    invalid_arg "Obs.Histogram.merge: sub_bits mismatch";
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        ensure_capacity into i;
        into.buckets.(i) <- into.buckets.(i) + c
      end)
    src.buckets;
  into.count <- into.count + src.count;
  into.sum <- into.sum + src.sum;
  if src.count > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
  end

let buckets t =
  let acc = ref [] in
  for i = Array.length t.buckets - 1 downto 0 do
    if t.buckets.(i) > 0 then acc := (i, t.buckets.(i)) :: !acc
  done;
  !acc

let quantile t q =
  bucket_quantile ~sub_bits:t.sub_bits ~count:t.count ~min_value:(min_value t)
    ~max_value:t.max_v (buckets t) q
