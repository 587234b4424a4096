let xor a b =
  if String.length a <> String.length b then
    invalid_arg "Bytes_util.xor: length mismatch";
  String.init (String.length a) (fun i ->
      Char.chr (Char.code a.[i] lxor Char.code b.[i]))

let equal_ct a b =
  String.length a = String.length b
  && begin
    let acc = ref 0 in
    String.iteri (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i])) a;
    !acc = 0
  end

let to_hex s =
  let hexdig = "0123456789abcdef" in
  String.init (2 * String.length s) (fun i ->
      let b = Char.code s.[i / 2] in
      hexdig.[if i land 1 = 0 then b lsr 4 else b land 0xf])

let of_hex s =
  if String.length s land 1 = 1 then invalid_arg "Bytes_util.of_hex: odd length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Bytes_util.of_hex: bad digit"
  in
  String.init (String.length s / 2) (fun i ->
      Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))

let take n s =
  if String.length s < n then invalid_arg "Bytes_util.take: too short";
  String.sub s 0 n

let drop n s =
  if String.length s < n then invalid_arg "Bytes_util.drop: too short";
  String.sub s n (String.length s - n)

let put_u32 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]
