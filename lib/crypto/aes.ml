let block_size = 16
let key_size = 16

(* GF(2^8) with the AES reduction polynomial x^8 + x^4 + x^3 + x + 1. *)
let gf_mul a b =
  let rec go a b acc =
    if b = 0 then acc
    else begin
      let acc = if b land 1 = 1 then acc lxor a else acc in
      let a = if a land 0x80 <> 0 then ((a lsl 1) lxor 0x11b) land 0xff else (a lsl 1) land 0xff in
      go a (b lsr 1) acc
    end
  in
  go a b 0

(* Multiplicative inverse by Fermat: a^254 in GF(2^8); inverse of 0 is 0. *)
let gf_inv a =
  let rec pow a n acc =
    if n = 0 then acc
    else begin
      let acc = if n land 1 = 1 then gf_mul acc a else acc in
      pow (gf_mul a a) (n lsr 1) acc
    end
  in
  if a = 0 then 0 else pow a 254 1

let sbox =
  let rotl8 b k = ((b lsl k) lor (b lsr (8 - k))) land 0xff in
  Array.init 256 (fun x ->
      let b = gf_inv x in
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox;
  t

(* T-tables for the encryption fast path: Te_r[x] packs the MixColumns
   contribution of an S-boxed byte arriving from state row [r] into one
   32-bit column word (big-endian, row 0 in the high byte). *)
let te0 =
  Array.init 256 (fun x ->
      let s = sbox.(x) in
      (gf_mul s 2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor gf_mul s 3)

let te1 =
  Array.init 256 (fun x ->
      let s = sbox.(x) in
      (gf_mul s 3 lsl 24) lor (gf_mul s 2 lsl 16) lor (s lsl 8) lor s)

let te2 =
  Array.init 256 (fun x ->
      let s = sbox.(x) in
      (s lsl 24) lor (gf_mul s 3 lsl 16) lor (gf_mul s 2 lsl 8) lor s)

let te3 =
  Array.init 256 (fun x ->
      let s = sbox.(x) in
      (s lsl 24) lor (s lsl 16) lor (gf_mul s 3 lsl 8) lor gf_mul s 2)

type key = {
  rkw : int array; (* round keys as 44 big-endian column words *)
  rk : int array array option Atomic.t;
      (* byte-level round keys, only needed by decryption and the
         reference implementation; the encrypt fast path never pays for
         them. An Atomic rather than a Lazy: forcing a Lazy from two
         domains at once raises Lazy.Undefined, and a key may be shared
         across domains. The compute is pure and idempotent, so racing
         domains that both build the table agree; the CAS publishes one
         fully-built copy. *)
}

(* Op counts (family [crypto.aes]): one increment per public operation,
   cheap enough for the per-packet fast path. *)
let c_expansions =
  Obs.Registry.counter Obs.Registry.default "crypto.aes.key_expansions"
let c_enc_blocks =
  Obs.Registry.counter Obs.Registry.default "crypto.aes.blocks_encrypted"
let c_dec_blocks =
  Obs.Registry.counter Obs.Registry.default "crypto.aes.blocks_decrypted"

let expand_key k =
  if String.length k <> key_size then invalid_arg "Aes.expand_key: need 16 bytes";
  Obs.Counter.inc c_expansions;
  (* AES-128 expands 4 key words to 44, here packed as 32-bit ints. *)
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <-
      (Char.code k.[4 * i] lsl 24)
      lor (Char.code k.[(4 * i) + 1] lsl 16)
      lor (Char.code k.[(4 * i) + 2] lsl 8)
      lor Char.code k.[(4 * i) + 3]
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let prev = w.(i - 1) in
    let t =
      if i mod 4 = 0 then begin
        (* RotWord then SubWord then the round constant. *)
        let rot = ((prev lsl 8) lor (prev lsr 24)) land 0xffffffff in
        let sub =
          (sbox.(rot lsr 24) lsl 24)
          lor (sbox.((rot lsr 16) land 0xff) lsl 16)
          lor (sbox.((rot lsr 8) land 0xff) lsl 8)
          lor sbox.(rot land 0xff)
        in
        let out = sub lxor (!rcon lsl 24) in
        rcon := gf_mul !rcon 2;
        out
      end
      else prev
    in
    w.(i) <- w.(i - 4) lxor t
  done;
  { rkw = w; rk = Atomic.make None }

(* Byte-level round keys, built on first use by decryption or the
   reference encryptor. Pure function of [rkw], so concurrent builders
   compute identical tables; whoever wins the CAS publishes, losers use
   their own copy (equally valid). *)
let round_keys k =
  match Atomic.get k.rk with
  | Some rk -> rk
  | None ->
      let rk =
        Array.init 11 (fun r ->
            Array.init 16 (fun j ->
                (k.rkw.((4 * r) + (j / 4)) lsr (8 * (3 - (j mod 4)))) land 0xff))
      in
      if Atomic.compare_and_set k.rk None (Some rk) then rk
      else
        (match Atomic.get k.rk with Some rk' -> rk' | None -> rk)

(* State layout: state.(r + 4*c) = byte r of column c (FIPS 197 order:
   input byte i goes to row i mod 4, column i / 4). *)

let add_round_key st rk =
  for i = 0 to 15 do
    st.(i) <- st.(i) lxor rk.(i)
  done

let sub_bytes st box =
  for i = 0 to 15 do
    st.(i) <- box.(st.(i))
  done

let shift_rows st =
  (* Row r rotates left by r positions. *)
  for r = 1 to 3 do
    let row = Array.init 4 (fun c -> st.(r + (4 * c))) in
    for c = 0 to 3 do
      st.(r + (4 * c)) <- row.((c + r) mod 4)
    done
  done

let inv_shift_rows st =
  for r = 1 to 3 do
    let row = Array.init 4 (fun c -> st.(r + (4 * c))) in
    for c = 0 to 3 do
      st.(r + (4 * c)) <- row.((c - r + 4) mod 4)
    done
  done

let mix_columns st =
  for c = 0 to 3 do
    let a0 = st.(4 * c) and a1 = st.((4 * c) + 1) and a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
    st.(4 * c) <- gf_mul a0 2 lxor gf_mul a1 3 lxor a2 lxor a3;
    st.((4 * c) + 1) <- a0 lxor gf_mul a1 2 lxor gf_mul a2 3 lxor a3;
    st.((4 * c) + 2) <- a0 lxor a1 lxor gf_mul a2 2 lxor gf_mul a3 3;
    st.((4 * c) + 3) <- gf_mul a0 3 lxor a1 lxor a2 lxor gf_mul a3 2
  done

let inv_mix_columns st =
  for c = 0 to 3 do
    let a0 = st.(4 * c) and a1 = st.((4 * c) + 1) and a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
    st.(4 * c) <- gf_mul a0 0xe lxor gf_mul a1 0xb lxor gf_mul a2 0xd lxor gf_mul a3 9;
    st.((4 * c) + 1) <- gf_mul a0 9 lxor gf_mul a1 0xe lxor gf_mul a2 0xb lxor gf_mul a3 0xd;
    st.((4 * c) + 2) <- gf_mul a0 0xd lxor gf_mul a1 9 lxor gf_mul a2 0xe lxor gf_mul a3 0xb;
    st.((4 * c) + 3) <- gf_mul a0 0xb lxor gf_mul a1 0xd lxor gf_mul a2 9 lxor gf_mul a3 0xe
  done

let state_of_string s = Array.init 16 (fun i -> Char.code s.[i])
let string_of_state st = String.init 16 (fun i -> Char.chr st.(i))

let encrypt_block_reference key block =
  let rk = round_keys key in
  if String.length block <> block_size then
    invalid_arg "Aes.encrypt_block: need 16 bytes";
  let st = state_of_string block in
  add_round_key st rk.(0);
  for round = 1 to 9 do
    sub_bytes st sbox;
    shift_rows st;
    mix_columns st;
    add_round_key st rk.(round)
  done;
  sub_bytes st sbox;
  shift_rows st;
  add_round_key st rk.(10);
  string_of_state st

external tget : int array -> int -> int = "%array_unsafe_get"

(* Tables and round keys are read unchecked: every table index is a byte
   of a 32-bit state word, so below 256, and [rkw] is checked once to
   hold the 44 words [expand_key] always builds. *)
let encrypt_bytes { rkw; _ } ~src ~dst =
  if Bytes.length src <> block_size then
    invalid_arg "Aes.encrypt_bytes: src needs 16 bytes";
  if Bytes.length dst <> block_size then
    invalid_arg "Aes.encrypt_bytes: dst needs 16 bytes";
  if Array.length rkw <> 44 then invalid_arg "Aes.encrypt_bytes: bad key";
  Obs.Counter.inc c_enc_blocks;
  let word off =
    (Char.code (Bytes.unsafe_get src off) lsl 24)
    lor (Char.code (Bytes.unsafe_get src (off + 1)) lsl 16)
    lor (Char.code (Bytes.unsafe_get src (off + 2)) lsl 8)
    lor Char.code (Bytes.unsafe_get src (off + 3))
  in
  let c0 = ref (word 0 lxor tget rkw 0)
  and c1 = ref (word 4 lxor tget rkw 1)
  and c2 = ref (word 8 lxor tget rkw 2)
  and c3 = ref (word 12 lxor tget rkw 3) in
  for round = 1 to 9 do
    let t0 =
      tget te0 (!c0 lsr 24)
      lxor tget te1 ((!c1 lsr 16) land 0xff)
      lxor tget te2 ((!c2 lsr 8) land 0xff)
      lxor tget te3 (!c3 land 0xff)
      lxor tget rkw (4 * round)
    and t1 =
      tget te0 (!c1 lsr 24)
      lxor tget te1 ((!c2 lsr 16) land 0xff)
      lxor tget te2 ((!c3 lsr 8) land 0xff)
      lxor tget te3 (!c0 land 0xff)
      lxor tget rkw ((4 * round) + 1)
    and t2 =
      tget te0 (!c2 lsr 24)
      lxor tget te1 ((!c3 lsr 16) land 0xff)
      lxor tget te2 ((!c0 lsr 8) land 0xff)
      lxor tget te3 (!c1 land 0xff)
      lxor tget rkw ((4 * round) + 2)
    and t3 =
      tget te0 (!c3 lsr 24)
      lxor tget te1 ((!c0 lsr 16) land 0xff)
      lxor tget te2 ((!c1 lsr 8) land 0xff)
      lxor tget te3 (!c2 land 0xff)
      lxor tget rkw ((4 * round) + 3)
    in
    c0 := t0;
    c1 := t1;
    c2 := t2;
    c3 := t3
  done;
  (* Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns. *)
  let final w0 w1 w2 w3 rk =
    ((tget sbox (w0 lsr 24) lsl 24)
    lor (tget sbox ((w1 lsr 16) land 0xff) lsl 16)
    lor (tget sbox ((w2 lsr 8) land 0xff) lsl 8)
    lor tget sbox (w3 land 0xff))
    lxor rk
  in
  let o0 = final !c0 !c1 !c2 !c3 (tget rkw 40)
  and o1 = final !c1 !c2 !c3 !c0 (tget rkw 41)
  and o2 = final !c2 !c3 !c0 !c1 (tget rkw 42)
  and o3 = final !c3 !c0 !c1 !c2 (tget rkw 43) in
  (* [src] may alias [dst]: all reads happened above. *)
  let put off v =
    Bytes.unsafe_set dst off (Char.unsafe_chr ((v lsr 24) land 0xff));
    Bytes.unsafe_set dst (off + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.unsafe_set dst (off + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.unsafe_set dst (off + 3) (Char.unsafe_chr (v land 0xff))
  in
  put 0 o0;
  put 4 o1;
  put 8 o2;
  put 12 o3

let encrypt_block key block =
  if String.length block <> block_size then
    invalid_arg "Aes.encrypt_block: need 16 bytes";
  let dst = Bytes.create block_size in
  encrypt_bytes key ~src:(Bytes.unsafe_of_string block) ~dst;
  Bytes.unsafe_to_string dst

let decrypt_block key block =
  let rk = round_keys key in
  if String.length block <> block_size then
    invalid_arg "Aes.decrypt_block: need 16 bytes";
  Obs.Counter.inc c_dec_blocks;
  let st = state_of_string block in
  add_round_key st rk.(10);
  inv_shift_rows st;
  sub_bytes st inv_sbox;
  for round = 9 downto 1 do
    add_round_key st rk.(round);
    inv_mix_columns st;
    inv_shift_rows st;
    sub_bytes st inv_sbox
  done;
  add_round_key st rk.(0);
  string_of_state st
