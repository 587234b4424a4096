(** Exporters: JSON (machine-readable) and table rows (human-readable,
    rendered by the experiments' table printer). Both render an
    immutable snapshot of a registry, sorted by (name, labels), so a
    live simulation can keep mutating while a snapshot is serialized. *)

val to_json : Registry.t -> string
(** The registry as one JSON object [{"metrics":[...]}]; a non-finite
    gauge is written as [null]. *)

val to_table : Registry.t -> string list list
(** One row [[key; kind; value]] per metric: the key is
    [name{k=v,...}], or just [name] when unlabeled; the kind is
    ["counter"], ["gauge"] or ["histogram"]; the value is the counter or
    gauge value, or a histogram's [n=... mean=... p50=... p99=...
    max=...]. *)
