(* Little-endian arrays of 26-bit limbs, canonical (no trailing zeros).
   26-bit limbs keep every limb product below 2^52, far inside the 63-bit
   native [int], so no overflow checks are needed anywhere; the Montgomery
   kernel, which sums many products before carrying, states its bound. *)

let base_bits = 26
let base = 1 lsl base_bits
let mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero a = Array.length a = 0

(* Strip trailing zero limbs to restore the canonical form. *)
let norm a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  let rec limbs n = if n = 0 then [] else (n land mask) :: limbs (n lsr base_bits) in
  Array.of_list (limbs n)

let to_int a =
  let l = Array.length a in
  if l * base_bits >= Sys.int_size && l > 0 then begin
    (* May overflow; recompute carefully. *)
    let r = ref 0 in
    for i = l - 1 downto 0 do
      if !r > max_int lsr base_bits then failwith "Nat.to_int: overflow";
      r := (!r lsl base_bits) lor a.(i)
    done;
    !r
  end
  else begin
    let r = ref 0 in
    for i = l - 1 downto 0 do
      r := (!r lsl base_bits) lor a.(i)
    done;
    !r
  end

let equal (a : t) (b : t) = a = b

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let add a b =
  let la = Array.length a and lb = Array.length b in
  let l = max la lb in
  let r = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(l) <- !carry;
  norm r

let sub a b =
  let la = Array.length a and lb = Array.length b in
  if lb > la then invalid_arg "Nat.sub: negative result";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Nat.sub: negative result";
  norm r

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let t = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- t land mask;
          carry := t lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let t = r.(!k) + !carry in
          r.(!k) <- t land mask;
          carry := t lsr base_bits;
          incr k
        done
      end
    done;
    norm r
  end

(* [mul_small a m]: [m] must satisfy [0 <= m < 2^30] so that a limb product
   plus carry stays below 2^57. *)
let mul_small a m =
  if m = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 2) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) * m) + !carry in
      r.(i) <- t land mask;
      carry := t lsr base_bits
    done;
    r.(la) <- !carry land mask;
    r.(la + 1) <- !carry lsr base_bits;
    norm r
  end

let add_small a m = add a (of_int m)

let shift_left a k =
  if k < 0 then invalid_arg "Nat.shift_left: negative shift";
  let la = Array.length a in
  if la = 0 || k = 0 then a
  else begin
    let ls = k / base_bits and bs = k mod base_bits in
    let r = Array.make (la + ls + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bs in
      r.(i + ls) <- r.(i + ls) lor (v land mask);
      r.(i + ls + 1) <- r.(i + ls + 1) lor (v lsr base_bits)
    done;
    norm r
  end

let shift_right a k =
  if k < 0 then invalid_arg "Nat.shift_right: negative shift";
  let la = Array.length a in
  let ls = k / base_bits and bs = k mod base_bits in
  if ls >= la then zero
  else begin
    let l = la - ls in
    let r = Array.make l 0 in
    for i = 0 to l - 1 do
      let lo = a.(i + ls) lsr bs in
      let hi =
        if bs > 0 && i + ls + 1 < la then
          (a.(i + ls + 1) lsl (base_bits - bs)) land mask
        else 0
      in
      r.(i) <- lo lor hi
    done;
    norm r
  end

let bits_of_limb v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let bit_length a =
  let la = Array.length a in
  if la = 0 then 0 else ((la - 1) * base_bits) + bits_of_limb a.(la - 1)

let testbit a i =
  let li = i / base_bits and off = i mod base_bits in
  li < Array.length a && (a.(li) lsr off) land 1 = 1

let is_even a = not (testbit a 0)
let is_odd a = testbit a 0
let succ a = add a one
let pred a = sub a one

(* Short division by a single limb [d], [0 < d < base]. *)
let divmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (norm q, !r)

let divmod a b =
  let lb = Array.length b in
  if lb = 0 then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if lb = 1 then begin
    let q, r = divmod_small a b.(0) in
    (q, if r = 0 then zero else [| r |])
  end
  else begin
    (* Knuth TAOCP vol. 2, Algorithm D. *)
    let d = base_bits - bits_of_limb b.(lb - 1) in
    let v = shift_left b d in
    let u0 = shift_left a d in
    let n = Array.length v in
    let m = Array.length u0 - n in
    (* Working copy of the dividend with one extra high limb. *)
    let u = Array.make (m + n + 1) 0 in
    Array.blit u0 0 u 0 (Array.length u0);
    let q = Array.make (m + 1) 0 in
    for j = m downto 0 do
      let top = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
      let qhat = ref (top / v.(n - 1)) and rhat = ref (top mod v.(n - 1)) in
      let continue = ref true in
      while !continue do
        if
          !qhat >= base
          || !qhat * v.(n - 2) > (!rhat lsl base_bits) lor u.(j + n - 2)
        then begin
          decr qhat;
          rhat := !rhat + v.(n - 1);
          if !rhat >= base then continue := false
        end
        else continue := false
      done;
      (* Multiply-subtract [qhat * v] from [u] at offset [j]. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr base_bits;
        let s = u.(j + i) - (p land mask) - !borrow in
        if s < 0 then begin
          u.(j + i) <- s + base;
          borrow := 1
        end
        else begin
          u.(j + i) <- s;
          borrow := 0
        end
      done;
      let s = u.(j + n) - !carry - !borrow in
      if s < 0 then begin
        (* qhat was one too large: add the divisor back. *)
        u.(j + n) <- s + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let t = u.(j + i) + v.(i) + !c in
          u.(j + i) <- t land mask;
          c := t lsr base_bits
        done;
        u.(j + n) <- (u.(j + n) + !c) land mask
      end
      else u.(j + n) <- s;
      q.(j) <- !qhat
    done;
    let r = norm (Array.sub u 0 n) in
    (norm q, shift_right r d)
  end

let rem a b = snd (divmod a b)

(* Byte i from the end lands at bit 8i, straddling a limb boundary when
   its offset is past 18 (the mirror of [byte_at] below). *)
let of_bytes_be s =
  let len = String.length s in
  let r = Array.make (((8 * len) + base_bits - 1) / base_bits) 0 in
  for i = 0 to len - 1 do
    let v = Char.code s.[len - 1 - i] in
    let bit = 8 * i in
    let li = bit / base_bits and off = bit mod base_bits in
    r.(li) <- r.(li) lor ((v lsl off) land mask);
    if off > base_bits - 8 then
      r.(li + 1) <- r.(li + 1) lor (v lsr (base_bits - off))
  done;
  norm r

let byte_at a i =
  let bit = 8 * i in
  let li = bit / base_bits and off = bit mod base_bits in
  let la = Array.length a in
  let lo = if li < la then a.(li) lsr off else 0 in
  let hi =
    if off > base_bits - 8 && li + 1 < la then
      a.(li + 1) lsl (base_bits - off)
    else 0
  in
  (lo lor hi) land 0xff

let to_bytes_be ?len a =
  let needed = (bit_length a + 7) / 8 in
  let len =
    match len with
    | None -> needed
    | Some l ->
      if l < needed then invalid_arg "Nat.to_bytes_be: value too large";
      l
  in
  String.init len (fun i -> Char.chr (byte_at a (len - 1 - i)))

let of_hex s =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Nat.of_hex: bad character"
  in
  let r = ref zero in
  String.iter (fun c -> r := add_small (mul_small !r 16) (digit c)) s;
  !r

let to_hex a =
  if is_zero a then "0"
  else begin
    let nibbles = (bit_length a + 3) / 4 in
    let hexdig = "0123456789abcdef" in
    String.init nibbles (fun i ->
        let pos = nibbles - 1 - i in
        let b = byte_at a (pos / 2) in
        let v = if pos land 1 = 1 then b lsr 4 else b land 0xf in
        hexdig.[v])
  end

let random ~bits state =
  if bits < 0 then invalid_arg "Nat.random: negative bits";
  if bits = 0 then zero
  else begin
    let limbs = (bits + base_bits - 1) / base_bits in
    let r = Array.init limbs (fun _ -> Random.State.int state base) in
    let top_bits = bits - ((limbs - 1) * base_bits) in
    r.(limbs - 1) <- r.(limbs - 1) land ((1 lsl top_bits) - 1);
    norm r
  end

let to_string a =
  if is_zero a then "0"
  else begin
    (* Peel 7 decimal digits at a time: 10^7 < 2^26. *)
    let chunk = 10_000_000 in
    let buf = Buffer.create 32 in
    let rec go a acc =
      if is_zero a then acc
      else begin
        let q, r = divmod_small a chunk in
        go q (r :: acc)
      end
    in
    match go a [] with
    | [] -> "0"
    | first :: rest ->
      Buffer.add_string buf (string_of_int first);
      List.iter (fun d -> Buffer.add_string buf (Printf.sprintf "%07d" d)) rest;
      Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)

module Montgomery = struct
  type ctx = {
    m : int array; (* modulus limbs, length n *)
    n : int;
    m' : int; (* -m^{-1} mod 2^26 *)
    r2 : int array; (* (2^26)^(2n) mod m, for entering the domain *)
    m_nat : t;
  }

  (* 2-adic inverse of an odd limb by Newton iteration: each step doubles
     the number of correct low bits. *)
  let inv_limb m0 =
    let x = ref m0 in
    (* m0 * m0 ≡ 1 (mod 8): 3 correct bits to start; 4 doublings > 26. *)
    for _ = 1 to 4 do
      x := !x * (2 - (m0 * !x)) land mask
    done;
    !x land mask

  (* [a] zero-extended to [n] limbs. *)
  let pad n a =
    let r = Array.make n 0 in
    Array.blit a 0 r 0 (Array.length a);
    r

  let create m_nat =
    if is_even m_nat || compare m_nat (of_int 3) < 0 then None
    else begin
      let m = m_nat in
      let n = Array.length m in
      let m' = base - inv_limb m.(0) land mask in
      let r2 = rem (shift_left one (2 * n * base_bits)) m_nat in
      Some { m; n; m' = m' land mask; r2 = pad n r2; m_nat }
    end

  (* Unchecked limb access for the kernel below, which validates every
     length once at entry. *)
  external get : int array -> int -> int = "%array_unsafe_get"
  external set : int array -> int -> int -> unit = "%array_unsafe_set"

  (* Carry bound. The kernel adds limb products, each below 2^52, into
     unnormalized accumulators and carries only the limb a round shifts
     out. Over one product an accumulator receives at most 2n of them (a
     doubled cross product counts as two) plus one shifted-out carry
     below 2^36, so up to n = 256 limbs (6656-bit moduli) it stays below
     2^61 + 2^36, inside the 63-bit native int. A round adds at most
     three products' worth to an accumulator, so wider moduli stay exact
     with a carry pass every 256 rounds. *)
  let carry_rounds = 256

  (* Normalizes t.(lo) .. t.(hi - 1) to limbs, carrying into t.(hi).
     Unchecked: callers pass indices inside [t]. *)
  let carry t lo hi =
    for j = lo to hi - 1 do
      let s = get t j in
      set t j (s land mask);
      set t (j + 1) (get t (j + 1) + (s lsr base_bits))
    done

  (* Limbs j .. 0 of [t] read as a number are at least those of [m]. *)
  let rec at_least t m j =
    j < 0
    || get t j > get m j
    || (get t j = get m j && at_least t m (j - 1))

  (* The accumulators t.(0) .. t.(n) hold a value below 2m: one
     normalizing pass, then [dst] := that value, minus m when it is at
     least m. Unchecked, like [carry]. *)
  let finish ctx t dst =
    let n = ctx.n and m = ctx.m in
    carry t 0 n;
    let sel = if get t n > 0 || at_least t m (n - 1) then -1 else 0 in
    let borrow = ref 0 in
    for j = 0 to n - 1 do
      let d = get t j - (get m j land sel) - !borrow in
      set dst j (d land mask);
      borrow := -(d asr base_bits)
    done

  let scratch ctx = Array.make (ctx.n + 1) 0

  (* The kernel: [dst] := a * b * R^{-1} mod m, R = 2^(26n), for n-limb
     [a] and [b] below m, with [t] from [scratch]. Round i adds
     a_i * b + u * m, where u makes the low limb zero, then shifts down
     one limb. When [a == b] the round skips the products below the
     diagonal and doubles those above it. [dst] is written only after
     [a] and [b] are read, so it may be either of them, and it comes out
     fully reduced, ready to feed the next product. *)
  let mul_into ctx t dst a b =
    let n = ctx.n and m = ctx.m and m' = ctx.m' in
    if
      Array.length a < n
      || Array.length b < n
      || Array.length dst < n
      || Array.length t < n + 1
    then invalid_arg "Nat.Montgomery: operand or scratch too short";
    let sq = a == b in
    for j = 0 to n do
      set t j 0
    done;
    for i = 0 to n - 1 do
      let ai = get a i in
      let first = if sq then i else 0 in
      let f = if sq then 2 * ai else ai in
      set t first (get t first + (ai * get b first));
      let s = get t 0 in
      let u = (s land mask) * m' land mask in
      let c = (s + (u * get m 0)) lsr base_bits in
      for j = 1 to first do
        set t (j - 1) (get t j + (u * get m j))
      done;
      for j = first + 1 to n - 1 do
        set t (j - 1) (get t j + (f * get b j) + (u * get m j))
      done;
      set t (n - 1) 0;
      set t 0 (get t 0 + c);
      if i land (carry_rounds - 1) = carry_rounds - 1 then carry t 0 (n - 1)
    done;
    finish ctx t dst

  let to_mont ctx t a =
    let r = pad ctx.n (rem a ctx.m_nat) in
    mul_into ctx t r r ctx.r2;
    r

  let from_mont ctx t a =
    let r = Array.make ctx.n 0 in
    r.(0) <- 1;
    mul_into ctx t r a r;
    norm r

  let mul_mod ctx a b =
    (* mont(aR, b) = a*b mod m: one conversion in, none out. *)
    let t = scratch ctx in
    let x = to_mont ctx t a in
    mul_into ctx t x x (pad ctx.n (rem b ctx.m_nat));
    norm x

  let sqr_mod ctx a =
    let t = scratch ctx in
    let x = to_mont ctx t a in
    mul_into ctx t x x x;
    from_mont ctx t x

  (* Binary square-and-multiply: the path for exponents too short for
     the windowed ladder's 16-entry table to pay. *)
  let pow_mod_binary ctx b e =
    let t = scratch ctx in
    let b = to_mont ctx t b in
    let acc = to_mont ctx t one in
    for i = bit_length e - 1 downto 0 do
      mul_into ctx t acc acc acc;
      if testbit e i then mul_into ctx t acc acc b
    done;
    from_mont ctx t acc

  let window_bits = 4

  (* 4-bit digit of [e] at window [w], possibly straddling a limb
     boundary (windows are 4 bits, limbs 26). *)
  let digit e w =
    let bit = window_bits * w in
    let li = bit / base_bits and off = bit mod base_bits in
    let le = Array.length e in
    let lo = if li < le then e.(li) lsr off else 0 in
    let hi =
      if off > base_bits - window_bits && li + 1 < le then
        e.(li + 1) lsl (base_bits - off)
      else 0
    in
    (lo lor hi) land 0xf

  let pow_mod ctx b e =
    let nbits = bit_length e in
    (* Below ~3 windows the table setup (14 multiplications) outweighs
       the saved per-bit multiplies. *)
    if nbits <= 12 then pow_mod_binary ctx b e
    else begin
      let t = scratch ctx in
      let b = to_mont ctx t b in
      (* g.(d) = b^d in the Montgomery domain, d = 1 .. 15. *)
      let g = Array.make 16 b in
      let b2 = Array.make ctx.n 0 in
      mul_into ctx t b2 b b;
      for d = 2 to 15 do
        let x = Array.make ctx.n 0 in
        if d land 1 = 0 then mul_into ctx t x g.(d - 1) b
        else mul_into ctx t x g.(d - 2) b2;
        g.(d) <- x
      done;
      let top = (nbits - 1) / window_bits in
      (* The top window contains the exponent's leading set bit, so its
         digit is non-zero and seeds the accumulator directly. *)
      let acc = Array.copy g.(digit e top) in
      for w = top - 1 downto 0 do
        mul_into ctx t acc acc acc;
        mul_into ctx t acc acc acc;
        mul_into ctx t acc acc acc;
        mul_into ctx t acc acc acc;
        let d = digit e w in
        if d <> 0 then mul_into ctx t acc acc g.(d)
      done;
      from_mont ctx t acc
    end
end
