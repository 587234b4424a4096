external get32 : string -> int -> int32 = "%caml_string_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"
external get64 : string -> int -> int64 = "%caml_string_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The running counter block and the keystream block it encrypts to, per
   domain; a call fills both before it reads them. *)
type scratch = { counter : Bytes.t; ks : Bytes.t }

let scratch =
  Domain.DLS.new_key (fun () ->
      { counter = Bytes.create Aes.block_size; ks = Bytes.create Aes.block_size })

(* Add one to the low 32 bits (big-endian) of the counter block, wrapping
   inside them: the upper 96 bits never change. *)
let incr_counter b =
  let v = get32 (Bytes.unsafe_to_string b) 12 in
  let v = Int32.add (if Sys.big_endian then v else bswap32 v) 1l in
  set32 b 12 (if Sys.big_endian then v else bswap32 v)

let ctr_into ~key ~nonce ~nonce_off src ~src_off dst ~dst_off ~len =
  if nonce_off < 0 || nonce_off > String.length nonce - Aes.block_size then
    invalid_arg "Mode.ctr_into: nonce must be 16 bytes";
  if len < 0 || src_off < 0 || src_off > String.length src - len
     || dst_off < 0 || dst_off > Bytes.length dst - len
  then invalid_arg "Mode.ctr_into: slice out of bounds";
  let { counter; ks } = Domain.DLS.get scratch in
  Bytes.blit_string nonce nonce_off counter 0 Aes.block_size;
  let ks_s = Bytes.unsafe_to_string ks in
  let pos = ref 0 in
  (* Whole blocks XOR 8 bytes at a time; a final partial block byte by
     byte. Each 8-byte word is read before it is written, so [src] may
     alias [dst] at the same offset. *)
  while !pos < len do
    Aes.encrypt_bytes key ~src:counter ~dst:ks;
    let s = src_off + !pos and d = dst_off + !pos in
    let n = len - !pos in
    if n >= Aes.block_size then begin
      set64 dst d (Int64.logxor (get64 src s) (get64 ks_s 0));
      set64 dst (d + 8) (Int64.logxor (get64 src (s + 8)) (get64 ks_s 8));
      pos := !pos + Aes.block_size
    end
    else begin
      for i = 0 to n - 1 do
        Bytes.unsafe_set dst (d + i)
          (Char.unsafe_chr
             (Char.code (String.unsafe_get src (s + i))
             lxor Char.code (Bytes.unsafe_get ks i)))
      done;
      pos := len
    end;
    incr_counter counter
  done

let ctr ~key ~nonce s =
  if String.length nonce <> Aes.block_size then
    invalid_arg "Mode.ctr: nonce must be 16 bytes";
  let len = String.length s in
  let out = Bytes.create len in
  ctr_into ~key ~nonce ~nonce_off:0 s ~src_off:0 out ~dst_off:0 ~len;
  Bytes.unsafe_to_string out
