let small_primes =
  (* Primes below 1000 by a compile-time sieve. *)
  let limit = 1000 in
  let composite = Array.make (limit + 1) false in
  let primes = ref [] in
  for n = 2 to limit do
    if not composite.(n) then begin
      primes := n :: !primes;
      let m = ref (n * n) in
      while !m <= limit do
        composite.(!m) <- true;
        m := !m + n
      done
    end
  done;
  Array.of_list (List.rev !primes)

(* Whether a small prime from index [i] on divides [n]: one short
   division per prime, keeping only the remainder, so trial division
   allocates nothing. *)
let rec has_small_factor n i =
  i < Array.length small_primes
  && (Nat.rem_int n small_primes.(i) = 0 || has_small_factor n (i + 1))

(* [ctx] is a Montgomery context for [n], shared across every witness of
   one candidate: the context setup (a wide reduction for R^2) is paid
   once per candidate instead of once per round, and the squaring chain
   runs on the dedicated Montgomery squaring path instead of wide
   Euclidean division. *)
let miller_rabin_witness ctx n ~d ~s a =
  (* Returns true when [a] witnesses compositeness of [n]. *)
  let x = Nat.Montgomery.pow_mod ctx a d in
  let n1 = Nat.pred n in
  if Nat.equal x Nat.one || Nat.equal x n1 then false
  else begin
    let rec go i x =
      if i >= s - 1 then true
      else begin
        let x = Nat.Montgomery.sqr_mod ctx x in
        if Nat.equal x n1 then false else go (i + 1) x
      end
    in
    go 0 x
  end

let is_probable_prime n state =
  if Nat.compare n Nat.two < 0 then false
  (* Only a value of at most 10 bits can be one of the primes below 1000. *)
  else if Nat.bit_length n <= 10 && Array.mem (Nat.to_int n) small_primes then
    true
  else if Nat.is_even n then false
  else if has_small_factor n 0 then false
  else begin
    (* Write n - 1 = d * 2^s with d odd. *)
    let n1 = Nat.pred n in
    let rec split d s = if Nat.is_odd d then (d, s) else split (Nat.shift_right d 1) (s + 1) in
    let d, s = split n1 0 in
    let bits = Nat.bit_length n in
    (* n is odd and > 2 here, so the context always exists. *)
    let ctx =
      match Nat.Montgomery.create n with
      | Some ctx -> ctx
      | None -> invalid_arg "Prime.is_probable_prime: even candidate"
    in
    let rec random_base () =
      let a = Nat.random ~bits state in
      if Nat.compare a Nat.two < 0 || Nat.compare a n1 >= 0 then random_base ()
      else a
    in
    let rec rounds_left k =
      if k = 0 then true
      else if miller_rabin_witness ctx n ~d ~s (random_base ()) then false
      else rounds_left (k - 1)
    in
    rounds_left 24
  end

let generate ~bits state =
  if bits < 2 then invalid_arg "Prime.generate: need at least 2 bits";
  let rec go () =
    (* Draw bits-1 random low bits and force the top bit, so the candidate
       has exactly [bits] bits; then force oddness. *)
    let c = Nat.random ~bits:(bits - 1) state in
    let c = Nat.add c (Nat.shift_left Nat.one (bits - 1)) in
    let c = if Nat.is_even c then Nat.succ c else c in
    if Nat.bit_length c = bits && is_probable_prime c state then c else go ()
  in
  go ()

let generate_coprime_pred ~bits ~e state =
  let rec go () =
    let p = generate ~bits state in
    if Nat.equal (Modular.gcd (Nat.pred p) e) Nat.one then p else go ()
  in
  go ()
