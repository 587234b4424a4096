type key = { aes : Aes.key; k1 : string; k2 : string }

(* Doubling in GF(2^128) with the CMAC reduction constant 0x87. *)
let dbl s =
  let b = Bytes.create 16 in
  let carry = ref 0 in
  for i = 15 downto 0 do
    let v = (Char.code s.[i] lsl 1) lor !carry in
    Bytes.set b i (Char.chr (v land 0xff));
    carry := v lsr 8
  done;
  if Char.code s.[0] land 0x80 <> 0 then
    Bytes.set b 15 (Char.chr (Char.code (Bytes.get b 15) lxor 0x87));
  Bytes.to_string b

let key k =
  let aes = Aes.expand_key k in
  let l = Aes.encrypt_block aes (String.make 16 '\x00') in
  let k1 = dbl l in
  let k2 = dbl k1 in
  { aes; k1; k2 }

let xor_byte x i c =
  Bytes.unsafe_set x i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get x i) lxor Char.code c))

(* XOR [p] into the CBC state [x], which already holds [fill] bytes of
   the current block, and return the new fill. A full block is
   encrypted only when more input follows it: the last block takes K1
   or K2 first. *)
let absorb aes x fill p =
  let fill = ref fill in
  for i = 0 to String.length p - 1 do
    if !fill = 16 then begin
      Aes.encrypt_bytes aes ~src:x ~dst:x;
      fill := 0
    end;
    xor_byte x !fill (String.unsafe_get p i);
    incr fill
  done;
  !fill

let rec absorb_all aes x fill = function
  | [] -> fill
  | p :: rest -> absorb_all aes x (absorb aes x fill p) rest

(* The parts are XORed straight into one 16-byte block, which becomes
   the tag. *)
let mac_parts { aes; k1; k2 } parts =
  let x = Bytes.make 16 '\x00' in
  let fill = absorb_all aes x 0 parts in
  let last =
    if fill = 16 then k1
    else begin
      xor_byte x fill '\x80';
      k2
    end
  in
  for i = 0 to 15 do
    xor_byte x i (String.unsafe_get last i)
  done;
  Aes.encrypt_bytes aes ~src:x ~dst:x;
  Bytes.unsafe_to_string x

let mac key msg = mac_parts key [ msg ]
