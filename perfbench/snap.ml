(* Snapshots of the process-global obs registry and of the GC, taken
   around a measured phase and diffed. Counter families are summed over
   their labels. *)

type t = {
  counters : (string, int) Hashtbl.t;
  minor_words : float;
  major_collections : int;
}

let take () =
  let counters = Hashtbl.create 64 in
  List.iter
    (fun (name, _labels, metric) ->
      match metric with
      | Obs.Registry.Counter c ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt counters name) in
        Hashtbl.replace counters name (prev + Obs.Counter.value c)
      | Obs.Registry.Gauge _ | Obs.Registry.Histogram _ -> ())
    (Obs.Registry.metrics Obs.Registry.default);
  let gc = Gc.quick_stat () in
  { counters;
    minor_words = gc.Gc.minor_words;
    major_collections = gc.Gc.major_collections
  }

let count t name = Option.value ~default:0 (Hashtbl.find_opt t.counters name)
let delta before after name = count after name - count before name

(* The live major heap after a full collection, in MB: what the run
   still holds. The allocator's top heap grows in coarse steps, so it
   read 20 or 27 MB on fig1-steady depending on the seed. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
