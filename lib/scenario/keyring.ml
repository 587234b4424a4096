let e2e_tbl : (int, Crypto.Rsa.private_key) Hashtbl.t = Hashtbl.create 8
let onetime_tbl : (int, Crypto.Rsa.private_key) Hashtbl.t = Hashtbl.create 32

(* Each index has its own seed, so a key does not depend on which keys
   were generated before it, or on which domain generates it. *)
let gen_e2e i =
  Crypto.Rsa.generate ~e:3 ~bits:1024 (Random.State.make [| 0xe2e; i |])

let gen_onetime i =
  Crypto.Rsa.generate ~e:3 ~bits:512 (Random.State.make [| 0x512; i |])

let memo tbl gen i =
  match Hashtbl.find_opt tbl i with
  | Some k -> k
  | None ->
    let k = gen i in
    Hashtbl.replace tbl i k;
    k

let e2e = memo e2e_tbl gen_e2e
let onetime = memo onetime_tbl gen_onetime

(* One round task per missing key, each writing only its own slot; the
   tables are filled on the caller once the round has returned. The
   RSA-1024 keys come first, so the cheap 512-bit ones fill in behind
   them. *)
let prepare ~e2e ~onetime =
  let missing tbl gen is =
    List.filter_map
      (fun i -> if Hashtbl.mem tbl i then None else Some (tbl, gen, i))
      (List.sort_uniq compare is)
  in
  let jobs =
    Array.of_list
      (missing e2e_tbl gen_e2e e2e @ missing onetime_tbl gen_onetime onetime)
  in
  let n = Array.length jobs in
  if n > 0 then begin
    let keys = Array.make n None in
    Par.with_pool ~size:(min n (Par.recommended ())) (fun pool ->
        Par.round pool ~n ~f:(fun k ->
            let _, gen, i = jobs.(k) in
            keys.(k) <- Some (gen i)));
    Array.iteri
      (fun k (tbl, _, i) -> Hashtbl.replace tbl i (Option.get keys.(k)))
      jobs
  end

let onetime_pool () =
  let next = ref 0 in
  fun () ->
    let i = !next in
    incr next;
    onetime i
