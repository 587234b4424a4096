type grant = { epoch : int; nonce : string; key : string; obtained_at : int64 }

(* One mutex guards the three tables and the eviction count, so a table
   may be shared across domains. *)

type t = {
  mu : Mutex.t;
  current_tbl : (Net.Ipaddr.t, grant) Hashtbl.t;
  by_nonce : (string, grant) Hashtbl.t;
  sessions : (string, Datapath.session) Hashtbl.t;
      (* memoized per-grant transform state (AES schedule, mask slice);
         keyed by the grant material itself so it is correct regardless of
         which neutralizer or index the grant was found through *)
  mutable evicted : int;
      (* total grants evicted by {!drop_older_than}; the stress test
         asserts eviction fires exactly once per stale grant *)
}

let create () =
  { mu = Mutex.create ();
    current_tbl = Hashtbl.create 8;
    by_nonce = Hashtbl.create 32;
    sessions = Hashtbl.create 32;
    evicted = 0
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
        Hashtbl.replace t.sessions k s;
        s)

let nonce_key ~neutralizer ~nonce = Net.Ipaddr.to_octets neutralizer ^ nonce

let put t ~neutralizer g =
  Mutex.protect t.mu (fun () ->
      Hashtbl.replace t.current_tbl neutralizer g;
      Hashtbl.replace t.by_nonce (nonce_key ~neutralizer ~nonce:g.nonce) g)

let current t ~neutralizer =
  Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.current_tbl neutralizer)

let find_nonce t ~neutralizer ~nonce =
  Mutex.protect t.mu (fun () ->
      Hashtbl.find_opt t.by_nonce (nonce_key ~neutralizer ~nonce))

let invalidate t ~neutralizer =
  Mutex.protect t.mu (fun () -> Hashtbl.remove t.current_tbl neutralizer)

let age t ~neutralizer ~now =
  Option.map (fun g -> Int64.sub now g.obtained_at) (current t ~neutralizer)

let drop_older_than t ~now ~max_age =
  let stale g = Int64.compare (Int64.sub now g.obtained_at) max_age > 0 in
  Mutex.protect t.mu (fun () ->
      Hashtbl.filter_map_inplace
        (fun _ g ->
          if stale g then begin
            Hashtbl.remove t.sessions (session_key g);
            t.evicted <- t.evicted + 1;
            None
          end
          else Some g)
        t.by_nonce;
      Hashtbl.filter_map_inplace
        (fun _ g -> if stale g then None else Some g)
        t.current_tbl)

let evictions t = Mutex.protect t.mu (fun () -> t.evicted)

let grants t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.fold (fun k g acc -> (k, g) :: acc) t.current_tbl [])

let session_count t = Mutex.protect t.mu (fun () -> Hashtbl.length t.sessions)

let clear t =
  Mutex.protect t.mu (fun () ->
      Hashtbl.reset t.current_tbl;
      Hashtbl.reset t.by_nonce;
      Hashtbl.reset t.sessions)
