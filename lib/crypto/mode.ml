let incr_counter b =
  (* Increment the low 32 bits (big-endian) of a 16-byte counter block,
     in place. *)
  let rec bump i =
    if i >= 12 then begin
      let v = (Char.code (Bytes.get b i) + 1) land 0xff in
      Bytes.set b i (Char.chr v);
      if v = 0 then bump (i - 1)
    end
  in
  bump 15

let ctr ~key ~nonce s =
  if String.length nonce <> Aes.block_size then
    invalid_arg "Mode.ctr: nonce must be 16 bytes";
  let len = String.length s in
  let out = Bytes.create len in
  (* Two scratch blocks for the whole message: the running counter and the
     keystream block it encrypts to. No per-block allocation. *)
  let counter = Bytes.of_string nonce in
  let ks = Bytes.create Aes.block_size in
  let off = ref 0 in
  while !off < len do
    Aes.encrypt_bytes key ~src:counter ~dst:ks;
    let n = min Aes.block_size (len - !off) in
    for i = 0 to n - 1 do
      Bytes.unsafe_set out (!off + i)
        (Char.unsafe_chr
           (Char.code (String.unsafe_get s (!off + i))
           lxor Char.code (Bytes.unsafe_get ks i)))
    done;
    incr_counter counter;
    off := !off + n
  done;
  Bytes.unsafe_to_string out
