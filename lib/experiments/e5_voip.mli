(** Experiment E5 — the paper's motivating scenario (§1, §3.4, §3.6).

    "A broadband ISP may intentionally degrade the VoIP service offered
    by Vonage, but give a high priority service to its own VoIP
    offerings." Ann, an AT&T subscriber, calls through Vonage (hosted in
    Cogent). AT&T installs a policy that throttles traffic it classifies
    as VoIP or addressed to Vonage.

    Five conditions, each a fresh Figure-1 world running a 10-second
    G.711-style call (50 pps, 160-byte frames). The policy is installed
    on AT&T's domain with {!Discrimination.Dsl.Control.install}, and
    each row counts its hits:

    - [baseline]: no discrimination, plain UDP — the healthy call;
    - [targeted-plain]: the throttle sees ports/DPI/addresses and
      squeezes the call to uselessness;
    - [targeted-neutralized]: the same policy with the call neutralized —
      nothing matches, the call recovers (the design goal);
    - [tier-EF-neutralized] / [tier-BE-neutralized]: AT&T tiers by DSCP
      under congestion (§3.4: a neutralizer never touches the DSCP), so
      paid expedited forwarding still outperforms best effort even though
      every packet is opaque — tiered service survives, targeting does
      not. *)

type row = {
  condition : string;
  delivered : int;
  sent : int;
  loss : float;
  mean_latency_ms : float;
  mos : float;  (** 1.0 (unusable) .. 4.5 (perfect) *)
  hits : int;
      (** verdicts of AT&T's policy other than forward
          ({!Discrimination.Dsl.Control.hits}); 0 with no policy *)
}

type result = { rows : row list }

val run : ?duration_s:float -> ?pps:int -> unit -> result
val print : result -> unit
