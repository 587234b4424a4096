(* [block] holds the last keystream block: a draw's partial tail, and the
   next key during a rekey. The generator owns all three buffers. *)
type t = { key : Aes.key; counter : Bytes.t; block : Bytes.t }

let create ~seed =
  let material = Sha256.digest ("nn-drbg-init" ^ seed) in
  { key = Aes.expand_key (String.sub material 0 16);
    counter = Bytes.of_string (String.sub material 16 16);
    block = Bytes.create 16
  }

(* The counter is one 128-bit big-endian number. *)
let rec bump c i =
  if i >= 0 then begin
    let v = (Char.code (Bytes.unsafe_get c i) + 1) land 0xff in
    Bytes.unsafe_set c i (Char.unsafe_chr v);
    if v = 0 then bump c (i - 1)
  end

let next t dst =
  bump t.counter 15;
  Aes.encrypt_bytes t.key ~src:t.counter ~dst

(* Every draw ends with a rekey: the next two blocks become the key and
   the counter, so a later compromise of the state does not reveal
   earlier output. *)
let generate t n =
  let out = Bytes.create n in
  let pos = ref 0 in
  while !pos < n do
    next t t.block;
    let k = min 16 (n - !pos) in
    Bytes.blit t.block 0 out !pos k;
    pos := !pos + k
  done;
  next t t.block;
  next t t.counter;
  Aes.rekey t.key t.block;
  Bytes.unsafe_to_string out
