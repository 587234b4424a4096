(* Words are native ints holding 32 bits. Sums are masked once, not per
   addition: five 32-bit words sum below 2^35, far inside the 63-bit
   native int. *)

let m32 = 0xffffffff

let first_primes n =
  let rec go c acc k =
    if k = 0 then List.rev acc
    else begin
      let is_prime =
        let rec chk d = d * d > c || (c mod d <> 0 && chk (d + 1)) in
        chk 2
      in
      if is_prime then go (c + 1) (c :: acc) (k - 1) else go (c + 1) acc k
    end
  in
  go 2 [] n

(* frac(root) * 2^32, computed in float; validated downstream by the
   known-answer tests (any rounding slip would break them loudly). *)
let frac_bits root p =
  let r = root (float_of_int p) in
  let frac = r -. Float.of_int (int_of_float r) in
  int_of_float (frac *. 4294967296.0) land m32

let k = Array.of_list (List.map (frac_bits Float.cbrt) (first_primes 64))
let h0 = Array.of_list (List.map (frac_bits Float.sqrt) (first_primes 8))

(* Op count (family [crypto.sha256]): compressed blocks, one add per
   [compress] call. *)
let c_blocks = Obs.Registry.counter Obs.Registry.default "crypto.sha256.blocks"

external get : int array -> int -> int = "%array_unsafe_get"
external set : int array -> int -> int -> unit = "%array_unsafe_set"
external get32 : string -> int -> int32 = "%caml_string_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let load_be s off =
  let v = get32 s off in
  Int32.to_int (if Sys.big_endian then v else bswap32 v) land m32

let store_be b off v =
  let v = Int32.of_int v in
  set32 b off (if Sys.big_endian then v else bswap32 v)

(* [compress h w s off n] runs the [n] 64-byte blocks of [s] that start
   at [off] through the chaining state [h], in place, with [w] as the
   message schedule. Callers check the bounds; the loops index
   unchecked. A rotation of a 32-bit word [x] right by [r] < 32 is bits
   [r .. r + 31] of the doubled word [x lor (x lsl 32)], which the
   63-bit native int holds up to bit 62, so each sigma masks once. *)
let compress h w s off n =
  Obs.Counter.add c_blocks n;
  for blk = 0 to n - 1 do
    let base = off + (64 * blk) in
    for t = 0 to 15 do
      set w t (load_be s (base + (4 * t)))
    done;
    for t = 16 to 63 do
      let x = get w (t - 15) and y = get w (t - 2) in
      let dx = x lor (x lsl 32) and dy = y lor (y lsl 32) in
      let s0 = ((dx lsr 7) lxor (dx lsr 18) lxor (x lsr 3)) land m32 in
      let s1 = ((dy lsr 17) lxor (dy lsr 19) lxor (y lsr 10)) land m32 in
      set w t ((get w (t - 16) + s0 + get w (t - 7) + s1) land m32)
    done;
    let a = ref (get h 0) and b = ref (get h 1) and c = ref (get h 2) in
    let d = ref (get h 3) and e = ref (get h 4) and f = ref (get h 5) in
    let g = ref (get h 6) and hh = ref (get h 7) in
    for t = 0 to 63 do
      let ev = !e and av = !a in
      let de = ev lor (ev lsl 32) and da = av lor (av lsl 32) in
      let s1 = ((de lsr 6) lxor (de lsr 11) lxor (de lsr 25)) land m32 in
      let ch = !g lxor (ev land (!f lxor !g)) in
      let t1 = !hh + s1 + ch + get k t + get w t in
      let s0 = ((da lsr 2) lxor (da lsr 13) lxor (da lsr 22)) land m32 in
      let maj = (av land !b) lor (!c land (av lor !b)) in
      hh := !g;
      g := !f;
      f := ev;
      e := (!d + t1) land m32;
      d := !c;
      c := !b;
      b := av;
      a := (t1 + s0 + maj) land m32
    done;
    set h 0 ((get h 0 + !a) land m32);
    set h 1 ((get h 1 + !b) land m32);
    set h 2 ((get h 2 + !c) land m32);
    set h 3 ((get h 3 + !d) land m32);
    set h 4 ((get h 4 + !e) land m32);
    set h 5 ((get h 5 + !f) land m32);
    set h 6 ((get h 6 + !g) land m32);
    set h 7 ((get h 7 + !hh) land m32)
  done

(* One domain's working space: the message schedule, the chaining state
   of the hash being finished, and its padded tail (one or two blocks).
   A call uses it from start to end and calls nothing that could use it
   again, so a domain never has two hashes in it at once. *)
type scratch = { w : int array; st : int array; tail : Bytes.t }

let scratch =
  Domain.DLS.new_key (fun () ->
      { w = Array.make 64 0; st = Array.make 8 0; tail = Bytes.create 128 })

(* Immutable: [h] is never written once a ctx holds it ([feed] compresses
   into a copy, [finish_into] into the scratch state), so a ctx may be
   shared across domains. *)
type ctx = { h : int array; pending : string; total : int }

let initial = { h = h0; pending = ""; total = 0 }
let init () = initial

let feed ctx s =
  let len = String.length s and p = String.length ctx.pending in
  let total = ctx.total + len in
  if p + len < 64 then { ctx with pending = ctx.pending ^ s; total }
  else begin
    let h = Array.copy ctx.h and w = (Domain.DLS.get scratch).w in
    (* Top up the pending partial block, then run every whole block
       straight out of [s]. *)
    let off =
      if p = 0 then 0
      else begin
        compress h w (ctx.pending ^ String.sub s 0 (64 - p)) 0 1;
        64 - p
      end
    in
    let n = (len - off) / 64 in
    compress h w s off n;
    let used = off + (64 * n) in
    { h; pending = String.sub s used (len - used); total }
  end

let finish_into ctx s ~off ~len dst ~dst_off ~dst_len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sha256.finish_into: source out of bounds";
  if dst_len < 0 || dst_len > 32 || dst_off < 0
     || dst_off > Bytes.length dst - dst_len
  then invalid_arg "Sha256.finish_into: destination out of bounds";
  let { w; st = h; tail } = Domain.DLS.get scratch in
  Array.blit ctx.h 0 h 0 8;
  let tail_s = Bytes.unsafe_to_string tail in
  let p = String.length ctx.pending in
  Bytes.blit_string ctx.pending 0 tail 0 p;
  (* Top up the pending partial block first; after that either no
     bytes are pending or the slice is used up. *)
  let top = if p = 0 then 0 else min (64 - p) len in
  Bytes.blit_string s off tail p top;
  let fill = ref (p + top) in
  if !fill = 64 then begin
    compress h w tail_s 0 1;
    fill := 0
  end;
  let off = off + top and len = len - top in
  let n = len / 64 in
  compress h w s off n;
  let rest = len - (64 * n) in
  Bytes.blit_string s (off + (64 * n)) tail !fill rest;
  (* Padding: 0x80, zeros, then the bit length in the last 8 bytes of
     the one or two tail blocks. *)
  let f = !fill + rest in
  let tail_len = if f + 9 <= 64 then 64 else 128 in
  Bytes.unsafe_set tail f '\x80';
  Bytes.unsafe_fill tail (f + 1) (tail_len - 8 - f - 1) '\x00';
  let bits = (ctx.total + top + len) * 8 in
  store_be tail (tail_len - 8) (bits lsr 32);
  store_be tail (tail_len - 4) (bits land m32);
  compress h w tail_s 0 (tail_len / 64);
  for i = 0 to dst_len - 1 do
    Bytes.unsafe_set dst (dst_off + i)
      (Char.unsafe_chr ((get h (i lsr 2) lsr (24 - (8 * (i land 3)))) land 0xff))
  done

let finalize ctx =
  let out = Bytes.create 32 in
  finish_into ctx "" ~off:0 ~len:0 out ~dst_off:0 ~dst_len:32;
  Bytes.unsafe_to_string out

let digest msg =
  let out = Bytes.create 32 in
  finish_into initial msg ~off:0 ~len:(String.length msg) out ~dst_off:0 ~dst_len:32;
  Bytes.unsafe_to_string out

let digest_hex msg = Bytes_util.to_hex (digest msg)
