type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

type key = string * (string * string) list

type t = (key, metric) Hashtbl.t

let create () : t = Hashtbl.create 64
let default = create ()

let canonical_labels labels =
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let kind_error name =
  invalid_arg
    (Printf.sprintf "Obs.Registry: %S already registered as another kind" name)

let resolve t name labels make unwrap =
  let key = (name, canonical_labels labels) in
  match Hashtbl.find_opt t key with
  | Some m -> unwrap m
  | None ->
    let m = make () in
    Hashtbl.replace t key m;
    unwrap m

let counter t ?(labels = []) name =
  resolve t name labels
    (fun () -> Counter (Counter.create ()))
    (function Counter c -> c | _ -> kind_error name)

let gauge t ?(labels = []) name =
  resolve t name labels
    (fun () -> Gauge (Gauge.create ()))
    (function Gauge g -> g | _ -> kind_error name)

let histogram t ?sub_bits ?(labels = []) name =
  resolve t name labels
    (fun () -> Histogram (Histogram.create ?sub_bits ()))
    (function Histogram h -> h | _ -> kind_error name)

let metrics t =
  Hashtbl.fold (fun (name, labels) m acc -> (name, labels, m) :: acc) t []
  |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))
