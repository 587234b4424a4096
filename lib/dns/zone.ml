type t = (string, Record.rr list) Hashtbl.t

let create () : t = Hashtbl.create 16

let add t ~name rr =
  let cur = Option.value ~default:[] (Hashtbl.find_opt t name) in
  Hashtbl.replace t name (cur @ [ rr ])

let lookup t ~name qtype =
  match Hashtbl.find_opt t name with
  | None -> []
  | Some rrs -> List.filter (Record.matches qtype) rrs

let mem t ~name = Hashtbl.mem t name

let publish_site t ~name ~addr ~neutralizers ~key =
  add t ~name (Record.A addr);
  List.iter (fun n -> add t ~name (Record.Neut n)) neutralizers;
  add t ~name (Record.Key (Crypto.Rsa.public_to_string key))
