type grant = { epoch : int; nonce : string; key : string; obtained_at : int64 }

(* One mutex guards both tables, so a table may be shared across
   domains. *)

type t = {
  mu : Mutex.t;
  current_tbl : (Net.Ipaddr.t, grant) Hashtbl.t;
  sessions : (string, Datapath.session) Hashtbl.t;
      (* memoized per-grant transform state (AES schedule, mask slice)
         of current grants only, keyed by the grant material itself so it
         is correct regardless of which neutralizer holds the grant *)
}

let create () =
  { mu = Mutex.create ();
    current_tbl = Hashtbl.create 8;
    sessions = Hashtbl.create 8
  }

let session_key g =
  String.make 1 (Char.chr (g.epoch land 0xff)) ^ g.nonce ^ g.key

let session t g =
  let k = session_key g in
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.sessions k with
      | Some s -> s
      | None ->
        let s = Datapath.make_session ~ks:g.key ~epoch:g.epoch ~nonce:g.nonce in
        (* A grant already replaced or invalidated is not memoized:
           nothing would evict its entry. *)
        let current =
          Hashtbl.fold
            (fun _ c cur -> cur || session_key c = k)
            t.current_tbl false
        in
        if current then Hashtbl.replace t.sessions k s;
        s)

(* Caller holds [t.mu]. *)
let drop_current t ~neutralizer =
  match Hashtbl.find_opt t.current_tbl neutralizer with
  | Some old ->
    Hashtbl.remove t.sessions (session_key old);
    Hashtbl.remove t.current_tbl neutralizer
  | None -> ()

let put t ~neutralizer g =
  Mutex.protect t.mu (fun () ->
      drop_current t ~neutralizer;
      Hashtbl.replace t.current_tbl neutralizer g)

let current t ~neutralizer =
  Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.current_tbl neutralizer)

let invalidate t ~neutralizer =
  Mutex.protect t.mu (fun () -> drop_current t ~neutralizer)

let grants t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold (fun k g acc -> (k, g) :: acc) t.current_tbl [])

let session_count t = Mutex.protect t.mu (fun () -> Hashtbl.length t.sessions)

let clear t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.reset t.current_tbl;
      Hashtbl.reset t.sessions)
