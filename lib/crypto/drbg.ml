type t = { mutable key : Aes.key; mutable counter : string }

let split32 s = (Bytes_util.take 16 s, String.sub s 16 16)

let create ~seed =
  let material = Sha256.digest ("nn-drbg-init" ^ seed) in
  let k, c = split32 material in
  { key = Aes.expand_key k; counter = c }

let bump t =
  let b = Bytes.of_string t.counter in
  let rec go i =
    if i >= 0 then begin
      let v = (Char.code (Bytes.get b i) + 1) land 0xff in
      Bytes.set b i (Char.chr v);
      if v = 0 then go (i - 1)
    end
  in
  go 15;
  t.counter <- Bytes.to_string b

let block t =
  bump t;
  Aes.encrypt_block t.key t.counter

let rekey t =
  let k = block t in
  let c = block t in
  t.key <- Aes.expand_key k;
  t.counter <- c

let generate t n =
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    Buffer.add_string buf (block t)
  done;
  rekey t;
  String.sub (Buffer.contents buf) 0 n

