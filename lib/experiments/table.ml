let print ~title ~header rows =
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left
      (fun acc row ->
        max acc (String.length (try List.nth row c with _ -> "")))
      0 all
  in
  let widths = List.init cols width in
  let line row =
    String.concat "  "
      (List.mapi
         (fun i cell ->
           let w = List.nth widths i in
           cell ^ String.make (w - String.length cell) ' ')
         row)
  in
  Printf.printf "\n== %s ==\n" title;
  print_endline (line header);
  print_endline
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  List.iter (fun r -> print_endline (line r)) rows;
  flush stdout

(* Attach the obs registry's view of a run to the report: every metric
   family under one of [prefixes] (all families when empty), rendered
   with the same aligned-table style as the result rows. A row's key
   starts with its family name. *)
let print_obs ?(prefixes = []) ~title () =
  let keep row =
    let key = List.hd row in
    prefixes = []
    || List.exists (fun p -> String.starts_with ~prefix:p key) prefixes
  in
  let rows = List.filter keep (Obs.Export.to_table Obs.Registry.default) in
  if rows <> [] then print ~title ~header:[ "metric"; "kind"; "value" ] rows

let kops v =
  if v >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let f2 v = Printf.sprintf "%.2f" v
let pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

let measure ?(min_time = 0.4) f =
  (* Warm up, then run in growing batches until the clock has advanced. *)
  f ();
  let t0 = Unix.gettimeofday () in
  let count = ref 0 in
  let batch = ref 16 in
  let elapsed () = Unix.gettimeofday () -. t0 in
  while elapsed () < min_time do
    for _ = 1 to !batch do
      f ()
    done;
    count := !count + !batch;
    if !batch < 16384 then batch := !batch * 2
  done;
  float_of_int !count /. elapsed ()
