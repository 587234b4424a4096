type t = int

let max32 = 0xffffffff

let of_int n =
  if n < 0 || n > max32 then invalid_arg "Ipaddr.of_int: out of range";
  n

let to_int a = a

let of_string s =
  let parts = String.split_on_char '.' s in
  match List.map int_of_string_opt parts with
  | [ Some a; Some b; Some c; Some d ]
    when a >= 0 && a < 256 && b >= 0 && b < 256 && c >= 0 && c < 256 && d >= 0
         && d < 256 ->
    (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d
  | _ -> invalid_arg ("Ipaddr.of_string: " ^ s)

let to_string a =
  Printf.sprintf "%d.%d.%d.%d" ((a lsr 24) land 0xff) ((a lsr 16) land 0xff)
    ((a lsr 8) land 0xff) (a land 0xff)

let of_octets s =
  if String.length s <> 4 then invalid_arg "Ipaddr.of_octets: need 4 bytes";
  (Char.code s.[0] lsl 24)
  lor (Char.code s.[1] lsl 16)
  lor (Char.code s.[2] lsl 8)
  lor Char.code s.[3]

let to_octets a =
  String.init 4 (fun i -> Char.chr ((a lsr (8 * (3 - i))) land 0xff))

let equal = Int.equal
let pp fmt a = Format.pp_print_string fmt (to_string a)

module Prefix = struct
  type addr = t
  type nonrec t = { network : addr; len : int }

  let mask len = if len = 0 then 0 else max32 lxor ((1 lsl (32 - len)) - 1)

  let make addr len =
    if len < 0 || len > 32 then invalid_arg "Prefix.make: bad length";
    { network = addr land mask len; len }

  let of_string s =
    match String.index_opt s '/' with
    | None -> invalid_arg "Prefix.of_string: missing /"
    | Some i ->
      let addr = of_string (String.sub s 0 i) in
      let len = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      make addr len

  let to_string p = Printf.sprintf "%s/%d" (to_string p.network) p.len
  let mem a p = a land mask p.len = p.network
  let network p = p.network
  let length p = p.len

  let nth p i =
    let size = if p.len = 32 then 1 else 1 lsl (32 - p.len) in
    if i < 0 || i >= size then invalid_arg "Prefix.nth: out of range";
    p.network lor i
end
