(** A registry of labeled metric families.

    Metrics are addressed by a family name (convention:
    [layer.component.metric], e.g. [net.link.sent_packets]) plus an
    optional label set; asking twice for the same (name, labels) pair
    returns the same instance, so instrumented code can either hold the
    instance or re-resolve it. A name registered as one kind cannot be
    re-registered as another.

    Domain-safety: resolution ({!counter}/{!gauge}/{!histogram}) mutates
    the registry table and must stay on the engine thread. Instances
    already resolved may be bumped from worker domains — counter and
    gauge updates are atomic. Histograms are engine-thread only. *)

type t

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

val create : unit -> t

val default : t
(** The process-global registry. Instrumentation in the simulator,
    neutralizer datapath and crypto layers records here unless told
    otherwise. *)

val counter : t -> ?labels:(string * string) list -> string -> Counter.t
val gauge : t -> ?labels:(string * string) list -> string -> Gauge.t

val histogram :
  t -> ?sub_bits:int -> ?labels:(string * string) list -> string -> Histogram.t
(** [sub_bits] only applies when the histogram is first created. *)

val metrics : t -> (string * (string * string) list * metric) list
(** All registered metrics, sorted by name then labels. Labels are
    stored sorted by key. *)

