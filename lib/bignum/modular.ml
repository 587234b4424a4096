let sub_mod a b m =
  let a = Nat.rem a m and b = Nat.rem b m in
  if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a m) b

let mul_mod a b m = Nat.rem (Nat.mul a b) m

let pow_mod_generic b e m =
  if Nat.is_zero m then raise Division_by_zero;
  if Nat.equal m Nat.one then Nat.zero
  else begin
    let b = Nat.rem b m in
    let nbits = Nat.bit_length e in
    let acc = ref Nat.one in
    for i = nbits - 1 downto 0 do
      acc := mul_mod !acc !acc m;
      if Nat.testbit e i then acc := mul_mod !acc b m
    done;
    !acc
  end

let pow_mod b e m =
  (* Montgomery pays a context setup (one wide reduction for R^2), so it
     wins only when the exponent is long enough to amortize it — private
     exponents, primality witnesses; those then run the fixed-window
     ladder with dedicated squarings (see Nat.Montgomery.pow_mod). Tiny
     public exponents (e = 3, 17, 65537) stay on the division path,
     which is exactly the paper's "as few as two multiplications"
     argument for e = 3. *)
  if Nat.bit_length e <= 20 then pow_mod_generic b e m
  else begin
    match Nat.Montgomery.create m with
    | Some ctx -> Nat.Montgomery.pow_mod ctx (Nat.rem b m) e
    | None -> pow_mod_generic b e m
  end

(* Signed values as (sign, magnitude); sign is 1 or -1, magnitude zero has
   sign 1 by convention. *)
let s_norm (s, v) = if Nat.is_zero v then (1, v) else (s, v)

let s_sub (sa, a) (sb, b) =
  if sa = sb then begin
    if Nat.compare a b >= 0 then s_norm (sa, Nat.sub a b)
    else s_norm (-sa, Nat.sub b a)
  end
  else s_norm (sa, Nat.add a b)

let s_mul_nat (s, v) n = s_norm (s, Nat.mul v n)

let egcd a b =
  (* Invariants: r0 = a*x0 + b*y0 and r1 = a*x1 + b*y1. *)
  let rec go r0 x0 y0 r1 x1 y1 =
    if Nat.is_zero r1 then (r0, x0, y0)
    else begin
      let q, r2 = Nat.divmod r0 r1 in
      let x2 = s_sub x0 (s_mul_nat x1 q) in
      let y2 = s_sub y0 (s_mul_nat y1 q) in
      go r1 x1 y1 r2 x2 y2
    end
  in
  go a (1, Nat.one) (1, Nat.zero) b (1, Nat.zero) (1, Nat.one)

let gcd a b =
  let g, _, _ = egcd a b in
  g

let inverse a m =
  if Nat.is_zero m then raise Division_by_zero;
  let g, x, _ = egcd (Nat.rem a m) m in
  if not (Nat.equal g Nat.one) then None
  else begin
    let sign, v = x in
    let v = Nat.rem v m in
    if sign >= 0 then Some v
    else if Nat.is_zero v then Some Nat.zero
    else Some (Nat.sub m v)
  end
