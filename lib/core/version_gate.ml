type verdict = Admitted | Downgrade of { seen : int; got : int }

type t = { best : (Net.Ipaddr.t, int) Hashtbl.t }

let create () = { best = Hashtbl.create 64 }

let admit t ~peer ~version =
  match Hashtbl.find_opt t.best peer with
  | Some seen when version < seen -> Downgrade { seen; got = version }
  | Some seen ->
    if version > seen then Hashtbl.replace t.best peer version;
    Admitted
  | None ->
    Hashtbl.add t.best peer version;
    Admitted

let receive t ~peer = function
  | None -> Error "missing"
  | Some bytes -> (
    match Shim.decode_versioned bytes with
    | Error e -> Error (Shim.error_label e)
    | Ok (version, shim) -> (
      match admit t ~peer ~version with
      | Downgrade _ -> Error "downgrade"
      | Admitted -> Ok shim))

let seen t ~peer = Hashtbl.find_opt t.best peer
let clear t = Hashtbl.reset t.best
let peer_count t = Hashtbl.length t.best
