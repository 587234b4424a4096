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

let mac { inner; outer } msg =
  Sha256.finalize (Sha256.feed outer (Sha256.finalize (Sha256.feed inner msg)))

let derive ~secret ~label ~length =
  let prf = key secret in
  let buf = Buffer.create length in
  let counter = ref 0 in
  while Buffer.length buf < length do
    incr counter;
    Buffer.add_string buf (mac prf (label ^ String.make 1 (Char.chr !counter)))
  done;
  String.sub (Buffer.contents buf) 0 length
