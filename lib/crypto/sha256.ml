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
external bswap32 : int32 -> int32 = "%bswap_int32"

let load_be s off =
  let v = get32 s off in
  Int32.to_int (if Sys.big_endian then v else bswap32 v) land m32

(* [compress h s off n] runs the [n] 64-byte blocks of [s] that start at
   [off] through the chaining state [h], in place, with one message
   schedule for all of them. Lengths are checked here once; the loops
   below index unchecked. *)
let compress h s off n =
  if Array.length h <> 8 || off < 0 || n < 0 || off + (64 * n) > String.length s
  then invalid_arg "Sha256.compress";
  Obs.Counter.add c_blocks n;
  let w = Array.make 64 0 in
  for blk = 0 to n - 1 do
    let base = off + (64 * blk) in
    for t = 0 to 15 do
      set w t (load_be s (base + (4 * t)))
    done;
    for t = 16 to 63 do
      let x = get w (t - 15) and y = get w (t - 2) in
      let s0 = ((x lsr 7) lor (x lsl 25)) lxor ((x lsr 18) lor (x lsl 14)) lxor (x lsr 3) in
      let s1 = ((y lsr 17) lor (y lsl 15)) lxor ((y lsr 19) lor (y lsl 13)) lxor (y lsr 10) in
      set w t ((get w (t - 16) + (s0 land m32) + get w (t - 7) + (s1 land m32)) land m32)
    done;
    let a = ref (get h 0) and b = ref (get h 1) and c = ref (get h 2) in
    let d = ref (get h 3) and e = ref (get h 4) and f = ref (get h 5) in
    let g = ref (get h 6) and hh = ref (get h 7) in
    for t = 0 to 63 do
      let ev = !e and av = !a in
      let s1 =
        ((ev lsr 6) lor (ev lsl 26)) lxor ((ev lsr 11) lor (ev lsl 21))
        lxor ((ev lsr 25) lor (ev lsl 7))
      in
      let ch = !g lxor (ev land (!f lxor !g)) in
      let t1 = !hh + (s1 land m32) + ch + get k t + get w t in
      let s0 =
        ((av lsr 2) lor (av lsl 30)) lxor ((av lsr 13) lor (av lsl 19))
        lxor ((av lsr 22) lor (av lsl 10))
      in
      let maj = (av land !b) lor (!c land (av lor !b)) in
      hh := !g;
      g := !f;
      f := ev;
      e := (!d + t1) land m32;
      d := !c;
      c := !b;
      b := av;
      a := (t1 + (s0 land m32) + maj) land m32
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

(* Immutable: [h] is never written once a ctx holds it ([feed] and
   [finalize] compress into copies), so a ctx may be shared across
   domains. *)
type ctx = { h : int array; pending : string; total : int }

let init () = { h = h0; pending = ""; total = 0 }

let feed ctx s =
  let len = String.length s and p = String.length ctx.pending in
  let total = ctx.total + len in
  if p + len < 64 then { ctx with pending = ctx.pending ^ s; total }
  else begin
    let h = Array.copy ctx.h in
    (* Top up the pending partial block, then run every whole block
       straight out of [s]. *)
    let off =
      if p = 0 then 0
      else begin
        compress h (ctx.pending ^ String.sub s 0 (64 - p)) 0 1;
        64 - p
      end
    in
    let n = (len - off) / 64 in
    compress h s off n;
    let used = off + (64 * n) in
    { h; pending = String.sub s used (len - used); total }
  end

let finalize ctx =
  let p = String.length ctx.pending in
  let tail_len = if p + 9 <= 64 then 64 else 128 in
  let tail = Bytes.make tail_len '\x00' in
  Bytes.blit_string ctx.pending 0 tail 0 p;
  Bytes.set tail p '\x80';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int (ctx.total * 8));
  let h = Array.copy ctx.h in
  compress h (Bytes.unsafe_to_string tail) 0 (tail_len / 64);
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) h;
  Bytes.unsafe_to_string out

let digest msg = finalize (feed (init ()) msg)
let digest_hex msg = Bytes_util.to_hex (digest msg)
