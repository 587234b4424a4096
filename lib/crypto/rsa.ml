module Nat = Bignum.Nat
module Modular = Bignum.Modular
module Prime = Bignum.Prime

(* Op counts for the evaluation: family crypto.rsa.* in the global
   registry. Counted at the public-operation level, not per Montgomery
   step. *)
let c_keygens = Obs.Registry.counter Obs.Registry.default "crypto.rsa.keygens"
let c_encrypts = Obs.Registry.counter Obs.Registry.default "crypto.rsa.encrypts"
let c_decrypts = Obs.Registry.counter Obs.Registry.default "crypto.rsa.decrypts"
let c_signs = Obs.Registry.counter Obs.Registry.default "crypto.rsa.signs"
let c_verifies = Obs.Registry.counter Obs.Registry.default "crypto.rsa.verifies"

(* Private operations whose CRT halves went to {!Par.both}. *)
let c_crt_splits =
  Obs.Registry.counter Obs.Registry.default "crypto.rsa.crt_splits"

type public = { n : Nat.t; e : Nat.t; bits : int }

type private_key = {
  public : public;
  d : Nat.t;
  p : Nat.t;
  q : Nat.t;
  dp : Nat.t;
  dq : Nat.t;
  qinv : Nat.t;
}

let generate ?(e = 3) ~bits state =
  if bits < 128 then invalid_arg "Rsa.generate: modulus too small";
  let e_nat = Nat.of_int e in
  let half = bits / 2 in
  let rec attempt () =
    let p = Prime.generate_coprime_pred ~bits:(bits - half) ~e:e_nat state in
    let q = Prime.generate_coprime_pred ~bits:half ~e:e_nat state in
    if Nat.equal p q then attempt ()
    else begin
      let n = Nat.mul p q in
      if Nat.bit_length n <> bits then attempt ()
      else begin
        let p1 = Nat.pred p and q1 = Nat.pred q in
        let phi = Nat.mul p1 q1 in
        match Modular.inverse e_nat phi with
        | None -> attempt ()
        | Some d ->
          let dp = Nat.rem d p1 and dq = Nat.rem d q1 in
          (match Modular.inverse q p with
           | None -> attempt ()
           | Some qinv ->
             { public = { n; e = e_nat; bits }; d; p; q; dp; dq; qinv })
      end
    end
  in
  let key = attempt () in
  Obs.Counter.inc c_keygens;
  key

let modulus_bytes pub = (pub.bits + 7) / 8
let min_pad = 11
let max_payload pub = modulus_bytes pub - min_pad

let encrypt_raw pub m = Modular.pow_mod m pub.e pub.n

(* The smallest modulus whose CRT halves run on two cores. Measured on
   a 2-vCPU x86 host: a 512-bit half (RSA-1024) takes 0.55–0.69 ms, and
   a split decryption 0.69–0.98 ms with the helper hot against
   0.95–1.25 ms sequential; a cold [Domain.spawn] + [join] costs
   0.1–0.47 ms. A 256-bit half (RSA-512) takes about 0.12 ms, which
   pays only while the helper is already hot, so one-time keys stay on
   the caller. *)
let split_bits = 1024

let two_cores = Par.recommended () >= 2

let decrypt_raw priv c =
  (* CRT: m1 = c^dp mod p, m2 = c^dq mod q, m = m2 + q*(qinv*(m1-m2) mod p) *)
  let half p d () = Modular.pow_mod c d p in
  let m1, m2 =
    if two_cores && priv.public.bits >= split_bits then begin
      Obs.Counter.inc c_crt_splits;
      Par.both (half priv.p priv.dp) (half priv.q priv.dq)
    end
    else (half priv.p priv.dp (), half priv.q priv.dq ())
  in
  let h = Modular.mul_mod priv.qinv (Modular.sub_mod m1 m2 priv.p) priv.p in
  Nat.add m2 (Nat.mul priv.q h)

let nonzero_random_bytes rng n =
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    String.iter
      (fun c -> if c <> '\x00' && Buffer.length buf < n then Buffer.add_char buf c)
      (rng (n + 8))
  done;
  Buffer.contents buf

let encrypt pub ~rng msg =
  Obs.Counter.inc c_encrypts;
  let k = modulus_bytes pub in
  if String.length msg > max_payload pub then
    invalid_arg "Rsa.encrypt: message too long";
  let ps = nonzero_random_bytes rng (k - 3 - String.length msg) in
  let em = "\x00\x02" ^ ps ^ "\x00" ^ msg in
  Nat.to_bytes_be ~len:k (encrypt_raw pub (Nat.of_bytes_be em))

let decrypt priv ct =
  Obs.Counter.inc c_decrypts;
  let k = modulus_bytes priv.public in
  if String.length ct <> k then None
  else begin
    let c = Nat.of_bytes_be ct in
    if Nat.compare c priv.public.n >= 0 then None
    else begin
      let em = Nat.to_bytes_be ~len:k (decrypt_raw priv c) in
      if String.length em < min_pad || em.[0] <> '\x00' || em.[1] <> '\x02' then
        None
      else begin
        match String.index_from_opt em 2 '\x00' with
        | Some i when i >= 10 ->
          Some (String.sub em (i + 1) (String.length em - i - 1))
        | Some _ | None -> None
      end
    end
  end

(* EMSA-PKCS1-v1.5 over SHA-256, with a short fixed prefix instead of the
   full DER DigestInfo — adequate for intra-simulation authenticity. *)
let emsa pub msg =
  let k = modulus_bytes pub in
  let digest_info = "sha256:" ^ Sha256.digest msg in
  let pslen = k - 3 - String.length digest_info in
  if pslen < 0 then invalid_arg "Rsa.sign: modulus too small for digest";
  "\x00\x01" ^ String.make pslen '\xff' ^ "\x00" ^ digest_info

let sign priv msg =
  Obs.Counter.inc c_signs;
  let k = modulus_bytes priv.public in
  let em = emsa priv.public msg in
  Nat.to_bytes_be ~len:k (decrypt_raw priv (Nat.of_bytes_be em))

let verify pub ~msg ~signature =
  Obs.Counter.inc c_verifies;
  let k = modulus_bytes pub in
  String.length signature = k
  && begin
    let s = Nat.of_bytes_be signature in
    Nat.compare s pub.n < 0
    && begin
      let em = Nat.to_bytes_be ~len:k (encrypt_raw pub s) in
      Bytes_util.equal_ct em (emsa pub msg)
    end
  end

let public_to_string pub =
  let buf = Buffer.create 80 in
  Bytes_util.put_u32 buf pub.bits;
  let nb = Nat.to_bytes_be ~len:(modulus_bytes pub) pub.n in
  Bytes_util.put_u32 buf (String.length nb);
  Buffer.add_string buf nb;
  let eb = Nat.to_bytes_be pub.e in
  Bytes_util.put_u32 buf (String.length eb);
  Buffer.add_string buf eb;
  Buffer.contents buf

(* 65537 = 2^16 + 1, the largest exponent any caller uses (ablation A1). *)
let max_e_bits = 17

let public_of_string s =
  let len = String.length s in
  if len < 12 then None
  else begin
    let bits = Bytes_util.get_u32 s 0 in
    let nlen = Bytes_util.get_u32 s 4 in
    if len < 8 + nlen + 4 then None
    else begin
      let n = Nat.of_bytes_be (String.sub s 8 nlen) in
      let elen = Bytes_util.get_u32 s (8 + nlen) in
      if len < 8 + nlen + 4 + elen || elen = 0 then None
      else begin
        let e = Nat.of_bytes_be (String.sub s (12 + nlen) elen) in
        (* The modulus must be exactly [bits] long, as every generated
           key is: {!encrypt} sizes its output from [bits]. The exponent
           must be a small public one: the box encrypts under whatever
           [e] a key-setup request carries, and a 4000-bit [e] cost it
           141x an e = 3 encryption. *)
        if Nat.compare e (Nat.of_int 3) < 0 || Nat.bit_length e > max_e_bits
           || bits <= 0 || bits > 65536
           || Nat.bit_length n <> bits
        then None
        else Some { n; e; bits }
      end
    end
  end
