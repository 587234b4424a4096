let block_size = 64

(* The chaining states after the ipad and opad blocks (RFC 2104 §4), so
   a MAC compresses only its message blocks and one outer block. *)
type key = { inner : Sha256.ctx; outer : Sha256.ctx }

let key k =
  let k = if String.length k > block_size then Sha256.digest k else k in
  let pad c =
    String.init block_size (fun i ->
        let b = if i < String.length k then Char.code k.[i] else 0 in
        Char.chr (b lxor c))
  in
  { inner = Sha256.feed (Sha256.init ()) (pad 0x36);
    outer = Sha256.feed (Sha256.init ()) (pad 0x5c)
  }

(* The inner hash, per domain: the outer hash reads it as its message. *)
let inner_digest = Domain.DLS.new_key (fun () -> Bytes.create 32)

let mac_into { inner; outer } s ~off ~len dst ~dst_off ~dst_len =
  let ih = Domain.DLS.get inner_digest in
  Sha256.finish_into inner s ~off ~len ih ~dst_off:0 ~dst_len:32;
  Sha256.finish_into outer (Bytes.unsafe_to_string ih) ~off:0 ~len:32 dst
    ~dst_off ~dst_len

let mac key msg =
  let out = Bytes.create 32 in
  mac_into key msg ~off:0 ~len:(String.length msg) out ~dst_off:0 ~dst_len:32;
  Bytes.unsafe_to_string out

let derive ~secret ~label ~length =
  let prf = key secret in
  let buf = Buffer.create length in
  let counter = ref 0 in
  while Buffer.length buf < length do
    incr counter;
    Buffer.add_string buf (mac prf (label ^ String.make 1 (Char.chr !counter)))
  done;
  String.sub (Buffer.contents buf) 0 length
