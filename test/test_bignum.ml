(* Unit and property tests for the bignum substrate: ring laws, Euclidean
   division invariants, codecs, modular arithmetic and primality. *)

module N = Bignum.Nat
module M = Bignum.Modular
module P = Bignum.Prime

let nat = Alcotest.testable N.pp N.equal

let check_nat = Alcotest.check nat

(* A generator of naturals with up to ~256 bits, biased toward small and
   structured values. *)
let gen_nat =
  let open QCheck2.Gen in
  let small = map N.of_int (int_bound 1000) in
  let of_bits bits =
    let* bytes = string_size ~gen:char (int_bound ((bits / 8) + 1)) in
    return (N.of_bytes_be bytes)
  in
  oneof [ small; of_bits 64; of_bits 128; of_bits 256 ]

(* ---- unit tests ---- *)

let test_of_to_int () =
  Alcotest.(check int) "roundtrip" 123456789 (N.to_int (N.of_int 123456789));
  Alcotest.(check int) "zero" 0 (N.to_int N.zero);
  Alcotest.check_raises "negative" (Invalid_argument "Nat.of_int: negative")
    (fun () -> ignore (N.of_int (-1)))

let test_add_sub_known () =
  let a = N.of_hex "ffffffffffffffffffffffffffffffff" in
  let b = N.of_int 1 in
  check_nat "carry chain" (N.of_hex "100000000000000000000000000000000") (N.add a b);
  check_nat "sub undoes add" a (N.sub (N.add a b) b);
  Alcotest.check_raises "negative sub"
    (Invalid_argument "Nat.sub: negative result") (fun () ->
      ignore (N.sub b a))

let test_mul_known () =
  check_nat "small" (N.of_int 56088) (N.mul (N.of_int 123) (N.of_int 456));
  let big = N.of_hex "123456789abcdef0" in
  check_nat "square"
    (N.of_hex "14b66dc33f6acdca5e20890f2a52100")
    (N.mul big big);
  check_nat "by zero" N.zero (N.mul big N.zero);
  check_nat "by one" big (N.mul big N.one)

let test_divmod_known () =
  let q, r = N.divmod (N.of_int 1000) (N.of_int 7) in
  Alcotest.(check int) "q" 142 (N.to_int q);
  Alcotest.(check int) "r" 6 (N.to_int r);
  let a = N.of_hex "deadbeefcafebabe0123456789abcdef" in
  let b = N.of_hex "ffff00000001" in
  let q, r = N.divmod a b in
  check_nat "reconstruct" a (N.add (N.mul q b) r);
  Alcotest.(check bool) "r < b" true (N.compare r b < 0);
  Alcotest.check_raises "by zero" Division_by_zero (fun () ->
      ignore (N.divmod a N.zero))

let test_shifts () =
  let a = N.of_int 5 in
  check_nat "left 10" (N.of_int 5120) (N.shift_left a 10);
  check_nat "right undoes" a (N.shift_right (N.shift_left a 77) 77);
  check_nat "right to zero" N.zero (N.shift_right a 3)

let test_bits () =
  Alcotest.(check int) "bit_length 0" 0 (N.bit_length N.zero);
  Alcotest.(check int) "bit_length 1" 1 (N.bit_length N.one);
  Alcotest.(check int) "bit_length 255" 8 (N.bit_length (N.of_int 255));
  Alcotest.(check int) "bit_length 256" 9 (N.bit_length (N.of_int 256));
  Alcotest.(check bool) "testbit" true (N.testbit (N.of_int 8) 3);
  Alcotest.(check bool) "testbit off" false (N.testbit (N.of_int 8) 2);
  Alcotest.(check bool) "even" true (N.is_even (N.of_int 42));
  Alcotest.(check bool) "odd" true (N.is_odd (N.of_int 43))

let test_bytes_codec () =
  let n = N.of_hex "0102030405" in
  Alcotest.(check string) "to_bytes" "\x01\x02\x03\x04\x05" (N.to_bytes_be n);
  Alcotest.(check string) "padded" "\x00\x00\x00\x01\x02\x03\x04\x05"
    (N.to_bytes_be ~len:8 n);
  check_nat "of_bytes" n (N.of_bytes_be "\x01\x02\x03\x04\x05");
  Alcotest.check_raises "too small"
    (Invalid_argument "Nat.to_bytes_be: value too large") (fun () ->
      ignore (N.to_bytes_be ~len:2 n))

let test_hex_codec () =
  Alcotest.(check string) "to_hex" "deadbeef" (N.to_hex (N.of_hex "DEADBEEF"));
  Alcotest.(check string) "zero" "0" (N.to_hex N.zero);
  Alcotest.check_raises "bad digit" (Invalid_argument "Nat.of_hex: bad character")
    (fun () -> ignore (N.of_hex "xyz"))

let test_decimal () =
  Alcotest.(check string) "small" "12345" (N.to_string (N.of_int 12345));
  Alcotest.(check string) "zero" "0" (N.to_string N.zero);
  (* 2^128 *)
  Alcotest.(check string) "2^128" "340282366920938463463374607431768211456"
    (N.to_string (N.shift_left N.one 128))

let test_random_bounds () =
  let st = Random.State.make [| 1 |] in
  for _ = 1 to 100 do
    let n = N.random ~bits:65 st in
    Alcotest.(check bool) "within bits" true (N.bit_length n <= 65)
  done

(* ---- properties ---- *)

let prop name gen print f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name ~print gen f)

let pair_nat = QCheck2.Gen.tup2 gen_nat gen_nat
let triple_nat = QCheck2.Gen.tup3 gen_nat gen_nat gen_nat
let print_pair (a, b) = N.to_string a ^ ", " ^ N.to_string b

let print_triple (a, b, c) =
  String.concat ", " [ N.to_string a; N.to_string b; N.to_string c ]

let properties =
  [ prop "add commutative" pair_nat print_pair (fun (a, b) ->
        N.equal (N.add a b) (N.add b a));
    prop "add associative" triple_nat print_triple (fun (a, b, c) ->
        N.equal (N.add a (N.add b c)) (N.add (N.add a b) c));
    prop "mul commutative" pair_nat print_pair (fun (a, b) ->
        N.equal (N.mul a b) (N.mul b a));
    prop "mul associative" triple_nat print_triple (fun (a, b, c) ->
        N.equal (N.mul a (N.mul b c)) (N.mul (N.mul a b) c));
    prop "distributivity" triple_nat print_triple (fun (a, b, c) ->
        N.equal (N.mul a (N.add b c)) (N.add (N.mul a b) (N.mul a c)));
    prop "divmod reconstructs" pair_nat print_pair (fun (a, b) ->
        QCheck2.assume (not (N.is_zero b));
        let q, r = N.divmod a b in
        N.equal a (N.add (N.mul q b) r) && N.compare r b < 0);
    prop "sub inverse of add" pair_nat print_pair (fun (a, b) ->
        N.equal a (N.sub (N.add a b) b));
    prop "shift_left is mul pow2" gen_nat N.to_string (fun a ->
        N.equal (N.shift_left a 13) (N.mul a (N.of_int 8192)));
    prop "bytes roundtrip" gen_nat N.to_string (fun a ->
        N.equal a (N.of_bytes_be (N.to_bytes_be a)));
    prop "hex roundtrip" gen_nat N.to_string (fun a ->
        N.equal a (N.of_hex (N.to_hex a)));
    prop "compare antisymmetric" pair_nat print_pair (fun (a, b) ->
        N.compare a b = -N.compare b a);
    prop "bit_length vs shift" gen_nat N.to_string (fun a ->
        QCheck2.assume (not (N.is_zero a));
        let l = N.bit_length a in
        N.compare a (N.shift_left N.one l) < 0
        && N.compare a (N.shift_left N.one (l - 1)) >= 0)
  ]

(* ---- division across widths (Knuth D stress) ---- *)

(* Wide operands with runs of 0xff/0x80/0x00 bytes: the shapes that
   force Algorithm D's qhat overestimate and the rare add-back step.
   Up to 128 bytes (1024 bits), well past every width the repo uses. *)
let gen_wide_nat =
  let open QCheck2.Gen in
  let edge_byte = oneofl [ '\x00'; '\x01'; '\x7f'; '\x80'; '\xfe'; '\xff' ] in
  let* len = int_range 1 128 in
  let* s = string_size ~gen:(oneof [ edge_byte; edge_byte; char ]) (return len) in
  return (N.of_bytes_be s)

let divmod_invariant a b =
  let q, r = N.divmod a b in
  N.equal a (N.add (N.mul q b) r) && N.compare r b < 0

let division_props =
  [ prop "divmod invariant, wide operands"
      QCheck2.Gen.(tup2 gen_wide_nat gen_wide_nat)
      print_pair
      (fun (a, b) ->
        QCheck2.assume (not (N.is_zero b));
        divmod_invariant a b);
    (* Divisors built from the dividend's own high bits make the trial
       quotient digit land on the base-1 boundary. *)
    prop "divmod invariant, near-degenerate divisors"
      QCheck2.Gen.(tup2 gen_wide_nat (int_range 0 64))
      (fun (a, k) -> N.to_string a ^ " >> " ^ string_of_int k)
      (fun (a, k) ->
        QCheck2.assume (N.bit_length a > k + 1);
        let high = N.shift_right a k in
        QCheck2.assume (not (N.is_zero high));
        divmod_invariant a high
        && divmod_invariant a (N.add high N.one)
        && (N.equal high N.one || divmod_invariant a (N.sub high N.one)));
    prop "rem consistent with divmod"
      QCheck2.Gen.(tup2 gen_wide_nat gen_wide_nat)
      print_pair
      (fun (a, b) ->
        QCheck2.assume (not (N.is_zero b));
        let _, r = N.divmod a b in
        N.equal r (N.rem a b));
    (* Small primes (trial division's divisors) and any one-limb value. *)
    prop "rem_int = rem, one-limb divisors"
      QCheck2.Gen.(
        tup2 gen_wide_nat
          (oneof [ int_range 1 1000; int_range 1 ((1 lsl 26) - 1) ]))
      (fun (a, d) -> N.to_string a ^ " mod " ^ string_of_int d)
      (fun (a, d) -> N.rem_int a d = N.to_int (N.rem a (N.of_int d)))
  ]

let test_rem_int_range () =
  Alcotest.(check int) "zero dividend" 0 (N.rem_int N.zero 7);
  List.iter
    (fun d ->
      Alcotest.check_raises (string_of_int d)
        (Invalid_argument "Nat.rem_int: divisor out of range") (fun () ->
          ignore (N.rem_int N.one d)))
    [ 0; -3; 1 lsl 26 ]

(* ---- octet-string codec ---- *)

(* 0-200 bytes, some with a run of leading zero bytes. *)
let gen_bytes =
  let open QCheck2.Gen in
  let* zeros = oneof [ return 0; int_bound 8 ] in
  let* body = string_size ~gen:char (int_bound (200 - zeros)) in
  return (String.make zeros '\x00' ^ body)

(* An independent reference: one shift and one add per byte. *)
let of_bytes_reference s =
  String.fold_left
    (fun acc c -> N.add (N.shift_left acc 8) (N.of_int (Char.code c)))
    N.zero s

let print_bytes s = Printf.sprintf "%S (%d bytes)" s (String.length s)

let test_of_bytes_edges () =
  check_nat "empty" N.zero (N.of_bytes_be "");
  check_nat "zero bytes" N.zero (N.of_bytes_be "\x00\x00\x00");
  check_nat "leading zeros" (N.of_int 0x0102) (N.of_bytes_be "\x00\x00\x01\x02");
  (* 13 bytes: the last one straddles the 26-bit limb boundary at bit 78 *)
  check_nat "limb straddle"
    (N.of_hex "ff0123456789abcdef01234567")
    (N.of_bytes_be (N.to_bytes_be (N.of_hex "ff0123456789abcdef01234567")))

let bytes_props =
  [ prop "of_bytes_be = shift/add reference" gen_bytes print_bytes (fun s ->
        N.equal (N.of_bytes_be s) (of_bytes_reference s));
    prop "to_bytes_be inverts of_bytes_be" gen_bytes print_bytes (fun s ->
        N.to_bytes_be ~len:(String.length s) (N.of_bytes_be s) = s)
  ]

(* ---- modular ---- *)

let test_pow_mod_vs_naive () =
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 200 do
    let b = Random.State.int st 500 and e = Random.State.int st 24 in
    let m = 2 + Random.State.int st 10_000 in
    let naive = ref 1 in
    for _ = 1 to e do
      naive := !naive * b mod m
    done;
    Alcotest.(check int) "pow_mod" !naive
      (N.to_int (M.pow_mod (N.of_int b) (N.of_int e) (N.of_int m)))
  done

let test_pow_mod_edges () =
  check_nat "mod one" N.zero (M.pow_mod (N.of_int 5) (N.of_int 3) N.one);
  check_nat "exp zero" N.one (M.pow_mod (N.of_int 5) N.zero (N.of_int 7));
  Alcotest.check_raises "mod zero" Division_by_zero (fun () ->
      ignore (M.pow_mod N.one N.one N.zero))

let test_inverse () =
  let st = Random.State.make [| 4 |] in
  for _ = 1 to 300 do
    let m = 2 + Random.State.int st 100_000 in
    let a = 1 + Random.State.int st (m - 1) in
    match M.inverse (N.of_int a) (N.of_int m) with
    | Some x -> Alcotest.(check int) "a*inv mod m" 1 (N.to_int x * a mod m)
    | None ->
      (* must share a factor *)
      let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
      Alcotest.(check bool) "gcd > 1" true (gcd a m > 1)
  done

let test_egcd_bezout () =
  let st = Random.State.make [| 5 |] in
  for _ = 1 to 200 do
    let a = N.random ~bits:90 st and b = N.random ~bits:70 st in
    let g, (sx, x), (sy, y) = M.egcd a b in
    (* a*x + b*y = g with signed coefficients *)
    let ax = N.mul a x and by = N.mul b y in
    let lhs =
      match (sx >= 0, sy >= 0) with
      | true, true -> N.add ax by
      | true, false -> N.sub ax by
      | false, true -> N.sub by ax
      | false, false -> N.add ax by (* g would be negative; impossible *)
    in
    Alcotest.(check bool) "bezout" true (N.equal lhs g);
    if not (N.is_zero g) then begin
      Alcotest.(check bool) "g | a" true (N.is_zero (N.rem a g));
      Alcotest.(check bool) "g | b" true (N.is_zero (N.rem b g))
    end
  done

let modular_props =
  [ prop "pow_mod matches naive repeated multiplication"
      QCheck2.Gen.(tup3 (int_bound 500) (int_bound 24) (int_range 2 10_000))
      (fun (b, e, m) -> Printf.sprintf "%d^%d mod %d" b e m)
      (fun (b, e, m) ->
        let naive = ref 1 in
        for _ = 1 to e do
          naive := !naive * b mod m
        done;
        N.to_int (M.pow_mod (N.of_int b) (N.of_int e) (N.of_int m)) = !naive)
  ]

(* ---- montgomery ---- *)

let gen_odd_modulus =
  QCheck2.Gen.map
    (fun n ->
      let m = N.add (N.mul n N.two) (N.of_int 3) in
      m)
    gen_nat

let montgomery_props =
  [ prop "montgomery pow_mod = generic"
      QCheck2.Gen.(tup3 gen_nat gen_nat gen_odd_modulus)
      print_triple
      (fun (b, e, m) ->
        N.equal (M.pow_mod b e m) (M.pow_mod_generic b e m));
    prop "montgomery mul law"
      QCheck2.Gen.(tup3 gen_nat gen_nat gen_odd_modulus)
      print_triple
      (fun (a, b, m) ->
        match N.Montgomery.create m with
        | None -> QCheck2.assume_fail ()
        | Some ctx ->
          N.equal (N.Montgomery.mul_mod ctx a b) (N.rem (N.mul a b) m));
    prop "montgomery rejects even moduli" gen_nat N.to_string (fun m ->
        let even = N.mul m N.two in
        N.Montgomery.create even = None);
    prop "montgomery ladders = generic"
      QCheck2.Gen.(tup3 gen_nat gen_nat gen_odd_modulus)
      print_triple
      (fun (b, e, m) ->
        match N.Montgomery.create m with
        | None -> QCheck2.assume_fail ()
        | Some ctx ->
          N.equal (N.Montgomery.pow_mod ctx b e) (M.pow_mod_generic b e m));
    prop "sqr_mod = mul_mod with itself"
      QCheck2.Gen.(tup2 gen_nat gen_odd_modulus)
      (fun (a, m) -> Printf.sprintf "%s^2 mod %s" (N.to_string a) (N.to_string m))
      (fun (a, m) ->
        match N.Montgomery.create m with
        | None -> QCheck2.assume_fail ()
        | Some ctx ->
          N.equal (N.Montgomery.sqr_mod ctx a) (N.rem (N.mul a a) m))
  ]

(* The fixed-window path at the width RSA-512 actually exercises must
   agree bit for bit with the generic ladder. *)
let test_windowed_512 () =
  let st = Random.State.make [| 0x512; 99 |] in
  for i = 1 to 3 do
    let m =
      let c = N.add (N.random ~bits:511 st) (N.shift_left N.one 511) in
      if N.is_even c then N.succ c else c
    in
    let ctx = Option.get (N.Montgomery.create m) in
    let b = N.random ~bits:512 st in
    let e = N.random ~bits:512 st in
    check_nat
      (Printf.sprintf "windowed = generic (%d)" i)
      (M.pow_mod_generic b e m)
      (N.Montgomery.pow_mod ctx b e)
  done

let test_montgomery_rsa_sized () =
  (* a full-width exchange at each RSA size in use *)
  let st = Random.State.make [| 0xabc |] in
  List.iter
    (fun bits ->
      let p = P.generate ~bits st in
      let b = N.random ~bits:(bits - 1) st in
      let e = N.random ~bits:(bits - 1) st in
      Alcotest.(check bool)
        (Printf.sprintf "%d-bit agreement" bits)
        true
        (N.equal (M.pow_mod b e p) (M.pow_mod_generic b e p)))
    [ 128; 256 ]

(* The kernel's worst case: m = 2^(26k) - 1 has every limb all ones, R
   mod m = 1, so m - 1 stays all ones in the Montgomery domain and every
   limb product and every u = t_0 mod 2^26 is near its maximum. Each
   Montgomery entry point must match the Euclidean reference. *)
let check_kernel label m a e =
  let ctx = Option.get (N.Montgomery.create m) in
  let pow_ref = M.pow_mod_generic a e m in
  check_nat (label ^ " mul_mod") (N.rem (N.mul a a) m)
    (N.Montgomery.mul_mod ctx a a);
  check_nat (label ^ " mul_mod, distinct operands")
    (N.rem (N.mul a (N.pred a)) m)
    (N.Montgomery.mul_mod ctx a (N.pred a));
  check_nat (label ^ " sqr_mod") (N.rem (N.mul a a) m) (N.Montgomery.sqr_mod ctx a);
  check_nat (label ^ " pow_mod") pow_ref (N.Montgomery.pow_mod ctx a e);
  (* 12 bits is the longest exponent pow_mod gives the binary ladder, 13
     the shortest it gives the windowed one. *)
  List.iter
    (fun bits ->
      let top = N.shift_left N.one (bits - 1) in
      let e = N.add top (N.rem e top) in
      check_nat
        (Printf.sprintf "%s pow_mod, %d-bit exponent" label bits)
        (M.pow_mod_generic a e m)
        (N.Montgomery.pow_mod ctx a e))
    [ 12; 13 ]

let all_ones bits = N.pred (N.shift_left N.one bits)

let test_kernel_all_ones_moduli () =
  for k = 1 to 41 do
    let m = all_ones (26 * k) in
    let a = N.pred m in
    (* All-ones exponents: every window digit is 15 (pow_mod multiplies
       by the table's last entry each window), and the 12-bit one takes
       the binary path. *)
    List.iter
      (fun ebits ->
        check_kernel (Printf.sprintf "k=%d e=2^%d-1" k ebits) m a (all_ones ebits))
      [ 12; 64 ];
    check_kernel (Printf.sprintf "k=%d e=m-1" k) m a (N.pred m)
  done

let test_kernel_random_rsa_widths () =
  let st = Random.State.make [| 0x1024; 7 |] in
  List.iter
    (fun bits ->
      for i = 1 to 2 do
        let m =
          let c = N.add (N.random ~bits:(bits - 1) st) (N.shift_left N.one (bits - 1)) in
          if N.is_even c then N.succ c else c
        in
        let a = N.random ~bits st in
        let label = Printf.sprintf "%d-bit #%d" bits i in
        check_kernel label m a (N.random ~bits st);
        check_kernel (label ^ " all-ones e") m a (all_ones bits)
      done)
    [ 512; 1024 ]

(* 800 limbs, past the 256-limb carry bound: the kernel's carry passes
   keep the worst-case accumulators exact. *)
let test_kernel_past_carry_bound () =
  let m = all_ones (26 * 800) in
  check_kernel "k=800" m (N.pred m) (all_ones 16);
  check_kernel "k=800 e=2^12-1" m (N.pred m) (all_ones 12)

(* ---- primality ---- *)

let test_small_primes () =
  let st = Random.State.make [| 6 |] in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (string_of_int p) true
        (P.is_probable_prime (N.of_int p) st))
    [ 2; 3; 5; 7; 97; 541; 7919; 104729 ];
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (string_of_int c) false
        (P.is_probable_prime (N.of_int c) st))
    [ 0; 1; 4; 100; 561 (* Carmichael *); 6601 (* Carmichael *); 7917 ]

(* A 500-bit power of 997, the last prime trial division tries: the scan
   runs to its end and must allocate nothing. *)
let test_trial_division_alloc () =
  let n = List.fold_left N.mul N.one (List.init 50 (fun _ -> N.of_int 997)) in
  let st = Random.State.make [| 8 |] in
  let before = Gc.minor_words () in
  let prime = P.is_probable_prime n st in
  let words = int_of_float (Gc.minor_words () -. before) in
  Alcotest.(check bool) "composite" false prime;
  Alcotest.(check int) "minor words" 0 words

let test_generate () =
  let st = Random.State.make [| 7 |] in
  let p = P.generate ~bits:96 st in
  Alcotest.(check int) "exact width" 96 (N.bit_length p);
  Alcotest.(check bool) "prime" true (P.is_probable_prime p st);
  let e = N.of_int 3 in
  let q = P.generate_coprime_pred ~bits:96 ~e st in
  Alcotest.(check bool) "p-1 coprime 3" true
    (N.equal (M.gcd (N.pred q) e) N.one)

(* Known primes spanning the widths the repo cares about: small, the
   RSA public exponent, a Mersenne prime and the curve25519 prime. *)
let known_primes =
  List.map N.of_int [ 2; 3; 5; 541; 7919; 104729; 65537 ]
  @ List.map N.of_hex
      [ "1fffffffffffffff" (* 2^61 - 1 *);
        "7fffffffffffffffffffffffffffffff" (* 2^127 - 1 *);
        "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed"
        (* 2^255 - 19 *)
      ]

(* Carmichael numbers and strong pseudoprimes to small bases; with 24
   random-base rounds a false accept has probability below 4^-24. *)
let known_composites =
  List.map N.of_int
    [ 561; 1105; 6601; 8911; 2047; 3277; 1373653 ]
  @ [ N.mul (N.of_hex "7fffffffffffffffffffffffffffffff") (N.of_int 3) ]

let prime_props =
  [ prop "miller-rabin never rejects a known prime"
      QCheck2.Gen.(tup2 (oneofl known_primes) (int_bound 1_000_000))
      (fun (p, seed) -> N.to_string p ^ " seed=" ^ string_of_int seed)
      (fun (p, seed) ->
        P.is_probable_prime p (Random.State.make [| seed |]));
    prop "miller-rabin never accepts a known composite"
      QCheck2.Gen.(tup2 (oneofl known_composites) (int_bound 1_000_000))
      (fun (c, seed) -> N.to_string c ^ " seed=" ^ string_of_int seed)
      (fun (c, seed) ->
        not (P.is_probable_prime c (Random.State.make [| seed |])))
  ]

let () =
  Alcotest.run "bignum"
    [ ( "nat-unit",
        [ Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "add/sub known" `Quick test_add_sub_known;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "divmod known" `Quick test_divmod_known;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "bits" `Quick test_bits;
          Alcotest.test_case "bytes codec" `Quick test_bytes_codec;
          Alcotest.test_case "of_bytes_be edges" `Quick test_of_bytes_edges;
          Alcotest.test_case "hex codec" `Quick test_hex_codec;
          Alcotest.test_case "decimal" `Quick test_decimal;
          Alcotest.test_case "random bounds" `Quick test_random_bounds;
          Alcotest.test_case "rem_int divisor range" `Quick test_rem_int_range
        ] );
      ("nat-properties", properties @ bytes_props);
      ("division-properties", division_props);
      ( "modular",
        [ Alcotest.test_case "pow_mod vs naive" `Quick test_pow_mod_vs_naive;
          Alcotest.test_case "pow_mod edges" `Quick test_pow_mod_edges;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "egcd bezout" `Quick test_egcd_bezout
        ]
        @ modular_props );
      ( "montgomery",
        Alcotest.test_case "rsa-sized agreement" `Slow test_montgomery_rsa_sized
        :: Alcotest.test_case "512-bit windowed agreement" `Slow
             test_windowed_512
        :: Alcotest.test_case "kernel: all-ones moduli, k = 1..41" `Slow
             test_kernel_all_ones_moduli
        :: Alcotest.test_case "kernel: random 512/1024-bit moduli" `Slow
             test_kernel_random_rsa_widths
        :: Alcotest.test_case "kernel: 800 limbs, past the carry bound" `Slow
             test_kernel_past_carry_bound
        :: montgomery_props );
      ( "prime",
        [ Alcotest.test_case "small primes" `Quick test_small_primes;
          Alcotest.test_case "trial division allocates nothing" `Quick
            test_trial_division_alloc;
          Alcotest.test_case "generate" `Slow test_generate
        ]
        @ prime_props )
    ]
