(** Console tables for experiment output, in the style of the paper's
    reported rows. *)

val print : title:string -> header:string list -> string list list -> unit

(** [print_obs ~title ()] appends the obs registry's metric families to
    the report — the uniform answer to "what did the stack actually do
    during this run". [prefixes] filters by family name prefix (e.g.
    [["core.neutralizer."]]); an empty list prints everything. Values
    are cumulative over the process, so when several experiments run in
    one binary the table reflects the registry state at print time. *)
val print_obs : ?prefixes:string list -> title:string -> unit -> unit

val kops : float -> string
(** 24400.0 -> "24.4k"; 2350000.0 -> "2.35M". *)

val f2 : float -> string
val pct : float -> string

(** [measure f] runs [f] repeatedly for at least [min_time] wall-clock
    seconds (default 0.4) and returns operations per second. *)
val measure : ?min_time:float -> (unit -> unit) -> float
