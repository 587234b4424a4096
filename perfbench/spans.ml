(* In-memory span recorder for the traced run.

   The benchmark wraps its own calls into each layer in [with_span];
   nothing inside the libraries is instrumented. A span is (id, parent,
   flow, name, start, end). A span opened while another is open on the
   same domain is its child. A span opened on a domain with nothing open
   is a child of [root], the coordinator's engine call in flight, so
   verdicts rendered on pool workers still have a parent. Spans of one
   request or flow carry its id as [flow], or -1 where the wrapped call
   cannot know it (a middleware sees only the wire). Each domain appends
   to its own buffer, so recording takes no lock. *)

type name = Setup | Engine_run | Send | Reply_cb | Responder | Dsl

let names = [| Setup; Engine_run; Send; Reply_cb; Responder; Dsl |]

let index = function
  | Setup -> 0
  | Engine_run -> 1
  | Send -> 2
  | Reply_cb -> 3
  | Responder -> 4
  | Dsl -> 5

let label = function
  | Setup -> "setup"
  | Engine_run -> "net.engine.run"
  | Send -> "core.client.send_to_name"
  | Reply_cb -> "core.client.receiver"
  | Responder -> "core.server.responder"
  | Dsl -> "dsl.middleware"

let fields = 6 (* id, parent, flow, name, start, end *)

(* Spans per domain after which a traced phase stops early ({!full}):
   memory stays bounded and every recorded span keeps its children. *)
let cap = 400_000

type buf = {
  mutable data : int array;
  mutable len : int;
  mutable stack : int list;
}

let bufs = ref []
let bufs_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b = { data = Array.make (fields * 4096) 0; len = 0; stack = [] } in
      Mutex.lock bufs_lock;
      bufs := b :: !bufs;
      Mutex.unlock bufs_lock;
      b)

let buffers () =
  Mutex.lock bufs_lock;
  let l = !bufs in
  Mutex.unlock bufs_lock;
  l

let full () = List.exists (fun b -> b.len >= cap) (buffers ())
let clear () = List.iter (fun b -> b.len <- 0) (buffers ())
let next_id = Atomic.make 1
let root = Atomic.make 0

let record b ~id ~parent ~flow name ~t0 ~t1 =
  let i = b.len * fields in
  if i + fields > Array.length b.data then begin
    let grown = Array.make (2 * Array.length b.data) 0 in
    Array.blit b.data 0 grown 0 i;
    b.data <- grown
  end;
  let d = b.data in
  d.(i) <- id;
  d.(i + 1) <- parent;
  d.(i + 2) <- flow;
  d.(i + 3) <- index name;
  d.(i + 4) <- t0;
  d.(i + 5) <- t1;
  b.len <- b.len + 1

(* [is_root] marks the coordinator's engine call. *)
let with_span ?(is_root = false) name ~flow f =
  let b = Domain.DLS.get key in
  let id = Atomic.fetch_and_add next_id 1 in
  let outer = Atomic.get root in
  let parent = match b.stack with p :: _ -> p | [] -> outer in
  if is_root then Atomic.set root id;
  b.stack <- id :: b.stack;
  let t0 = Clock.now () in
  let finish () =
    let t1 = Clock.now () in
    b.stack <- List.tl b.stack;
    if is_root then Atomic.set root outer;
    record b ~id ~parent ~flow name ~t0 ~t1
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* Verdicts rendered by wrapped tables, on every domain. *)
let verdicts = Atomic.make 0

(* A domain's policy table, wrapped for the traced phase. *)
let wrap_middleware table o =
  Atomic.incr verdicts;
  with_span Dsl ~flow:(-1) (fun () -> table o)

let iter f =
  List.iter
    (fun b ->
      let d = b.data in
      for k = 0 to b.len - 1 do
        let i = k * fields in
        f ~id:d.(i) ~parent:d.(i + 1) ~flow:d.(i + 2) ~name:d.(i + 3)
          ~t0:d.(i + 4) ~t1:d.(i + 5)
      done)
    (buffers ())

type agg = { mutable count : int; mutable self_ns : int }
type summary = { aggs : agg array; spans : int }

(* Length of the union of the intervals [ivs], clipped to [lo, hi]. *)
let covered ivs ~lo ~hi =
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        let a = max a reach and b = min b hi in
        if b > a then (total + (b - a), b) else (total, reach))
      (0, lo) (List.sort compare ivs)
  in
  total

(* Per-name call count and self time: a span's duration minus the time
   its children cover. *)
let summarize () =
  let children = Hashtbl.create 4096 and spans = ref 0 in
  iter (fun ~id:_ ~parent ~flow:_ ~name:_ ~t0 ~t1 ->
      incr spans;
      if parent <> 0 then
        Hashtbl.replace children parent
          ((t0, t1)
          :: Option.value ~default:[] (Hashtbl.find_opt children parent)));
  let aggs = Array.map (fun _ -> { count = 0; self_ns = 0 }) names in
  iter (fun ~id ~parent:_ ~flow:_ ~name ~t0 ~t1 ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children id) in
      let a = aggs.(name) in
      a.count <- a.count + 1;
      a.self_ns <- a.self_ns + (t1 - t0) - covered kids ~lo:t0 ~hi:t1);
  { aggs; spans = !spans }

(* Mean self time per call, in ns (0 without calls). *)
let self_ns s name =
  let a = s.aggs.(index name) in
  float_of_int a.self_ns /. float_of_int (max 1 a.count)

let total_self_ns s name = s.aggs.(index name).self_ns

(* Writes at most [limit] spans as TSV, times relative to [epoch]. *)
let write path ~epoch ~limit =
  let oc = open_out path in
  output_string oc "id\tparent\tflow\tname\tstart_ns\tend_ns\n";
  let n = ref 0 in
  iter (fun ~id ~parent ~flow ~name ~t0 ~t1 ->
      if !n < limit then begin
        incr n;
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" id parent flow
          (label names.(name)) (t0 - epoch) (t1 - epoch)
      end);
  close_out oc
