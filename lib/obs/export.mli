(** Exporters: JSON (machine-readable) and an aligned
    text table (human-readable). Both operate on an immutable snapshot
    of a registry, so a live simulation can keep mutating while a
    snapshot is serialized. *)

type histogram_snapshot = {
  sub_bits : int;
  count : int;
  sum : int;
  min_value : int;
  max_value : int;
  buckets : (int * int) list;  (** (bucket index, count), increasing index *)
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot

type metric = {
  name : string;
  labels : (string * string) list;
  value : value;
}

type snapshot = metric list

val snapshot : Registry.t -> snapshot
(** Copy of the current state, sorted by (name, labels). *)

val key_to_string : metric -> string
(** [name{k=v,...}], or just [name] when unlabeled. *)

val value_summary : value -> string
(** One-line rendering: counter/gauge value, or histogram
    [n=... mean=... p50=... p99=... max=...]. *)

val to_json : Registry.t -> string
(** The registry as one JSON object [{"metrics":[...]}], in
    {!snapshot} order; a non-finite gauge is written as [null]. *)

val to_text : Registry.t -> string
(** Aligned text table of the whole registry. *)
