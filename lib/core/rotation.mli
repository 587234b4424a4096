(** Operator-side master-key rotation on a schedule.

    §4 sizes the system around "a neutralizer's master key lasts for an
    hour"; this helper is the cron job that makes it true. Every [every]
    ns the master advances one epoch; the previous epoch stays decryptable
    for one more period (the {!Master_key} grace window), so in-flight
    grants never break, and clients re-key once a grant is 54 simulated
    minutes old ({!Client.default_config}) — which should be shorter
    than [every]. *)

type t

val schedule :
  Net.Engine.t -> Master_key.t -> ?every:int64 -> unit -> t
(** Starts rotating; [every] defaults to
    {!Protocol.master_key_lifetime} (one hour). The recurring event keeps
    the engine's queue non-empty until {!stop}. *)

val stop : t -> unit
val rotations : t -> int

val crash : t -> unit
(** The box hosting the schedule goes down mid-epoch: ticks keep
    arriving (the schedule is wall time) but rotations stop being
    executed. *)

val restart : t -> unit
(** Catch up on every rotation missed while crashed, so the restarted
    box agrees with the shared epoch timeline — a grant issued against
    epoch [e] before the crash is judged exactly as it would have been
    had the box stayed up. *)
