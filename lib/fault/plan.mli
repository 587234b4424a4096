(** Declarative fault plans.

    A plan is a reproducible fault timeline: a list of absolute-time
    one-shot faults plus Markov up/down flapping processes with
    exponential holding times. Plans are written in a one-directive-per-
    line text format (what [netneutral e12 --plan FILE] reads):

    {v
    # seconds are simulated time from the start of the run
    at 1.5 node_crash neutralizer-1
    at 4.0 node_restart neutralizer-1
    at 6.0 link_down level3-core cogent-core
    at 8.0 link_up level3-core cogent-core
    at 10  partition cogent
    at 12  heal
    flap neutralizer-2 300 5   # mean 300 s up, 5 s down
    v}

    Node and domain names are resolved against the target topology when
    the plan is {!schedule}d — all of them up front, so a misspelled
    name rejects the whole plan instead of half-running it. Flap holding
    times draw from a per-node child stream of the injector's PRNG
    (label ["flap:<node>"]), so the timeline is a pure function of the
    plan text and [FAULT_SEED]. *)

type action =
  | Link_down of string * string
  | Link_up of string * string
  | Node_crash of string
  | Node_restart of string
  | Partition of string list  (** domain names *)
  | Heal

type entry = { at_s : float; action : action }
type flap = { flap_node : string; mean_up_s : float; mean_down_s : float }
type t = { entries : entry list; flaps : flap list }

val empty : t

val parse : string -> (t, string) result
(** Parse the text format above. [#] starts a comment; blank lines are
    ignored. Errors carry the offending line number. *)

val to_string : t -> string
(** Round-trips through {!parse}. *)

val schedule : ?horizon_s:float -> t -> Inject.t -> (unit -> unit, string) result
(** Resolve names and schedule every entry and flap on the injector's
    engine, starting from the current simulated time. Flapping
    reschedules itself forever unless [horizon_s] bounds it (no flap
    transition is scheduled past the horizon, and a node down at the
    horizon is restarted) — pass it whenever the run relies on the event
    queue draining. Returns a stopper that freezes the plan: pending
    entries become no-ops and flaps stop rescheduling. *)
