(** Experiment E6 — key-setup flood and pushback (§3.6).

    "A neutralizer box may be subject to DoS attacks. Although our design
    places the more efficient RSA encryption operation at a neutralizer, a
    public key operation is still expensive. If attackers flood key setup
    packets at line speed, a neutralizer may be overloaded. ... a
    neutralizer can invoke DoS defense mechanisms such as pushback."

    A botnet inside AT&T floods valid key-setup requests at the anycast
    address while Ann holds a steady neutralized exchange with Google.
    With pushback on, the controller protecting Cogent identifies the
    key-setup aggregates per source /24, rate-limits them, and propagates
    the limits upstream into AT&T. The third condition replaces upstream
    cooperation with purely local admission control at the boxes
    ({!Core.Neutralizer.enable_admission}): expensive key setups shed by
    backlog and source rate before established data traffic, so the two
    defenses are comparable in one table. *)

type row = {
  condition : string;
  ann_delivered : int;
  ann_sent : int;
  ann_mean_latency_ms : float;
  box_key_setups : int;  (** RSA operations the box actually performed *)
  flood_dropped_upstream : int;  (** flood packets killed inside AT&T *)
  box_shed : int;
      (** requests refused by the boxes' local admission control
          (nonzero only under the shedding condition) *)
}

type result = { rows : row list }

val run : ?attack_pps:int -> ?duration_s:float -> unit -> result

val print : result -> unit
