(** Priority admission control for a neutralizer box.

    The box serves two very differently priced classes: RSA key setups
    (tens of microseconds of CPU each) and AES data forwarding (a few
    microseconds). Under overload the right thing to shed first is the
    expensive class — established data traffic keeps flowing while new
    key setups queue-limit, which is exactly the degradation order §3.6's
    DoS discussion wants.

    A verdict is computed from three checks, cheapest-win first:

    + {b deadline}: a setup whose propagated deadline cannot be met even
      before paying the RSA cost ([deadline < now + backlog]) is dead on
      arrival — shedding it is free goodput.
    + {b source-rate}: a per-source-prefix token bucket (default /24,
      the same aggregate granularity as [Pushback]) bounds how much
      setup work any one neighborhood can demand.
    + {b backlog}: per-class bounds on the box's CPU backlog, with the
      setup bound far below the data bound so setups shed first.

    The verdicts carry string reasons used directly as labels on the
    [core.neutralizer.shed_total{reason,class}] metric family. *)

type klass = Setup | Data | Other

val klass_name : klass -> string
(** ["setup"], ["data"], ["other"] — metric label values. *)

type verdict = Admit | Shed of string  (** reason label *)

type config = {
  max_backlog_setup : int64;
      (** shed setups when CPU backlog exceeds this many ns; > 0 *)
  max_backlog_data : int64;
      (** shed data when CPU backlog exceeds this many ns; >= setup bound *)
  per_source_rate : float;  (** setup tokens/s per source prefix; >= 0 *)
  per_source_burst : float;  (** bucket depth per source prefix; > 0 *)
  prefix_bits : int;  (** aggregate granularity; in [0, 32] *)
}

type t

val create : ?config:config -> unit -> t
(** [config] defaults to a 20 ms setup backlog bound, a 200 ms data
    bound, and 200 setups/s per /24 with burst 50. Raises
    [Invalid_argument] on a malformed config. *)

val admit :
  t ->
  now:int64 ->
  backlog:int64 ->
  klass:klass ->
  src:Net.Ipaddr.t ->
  ?deadline:int64 ->
  unit ->
  verdict
(** [backlog] is the box's outstanding CPU time
    ({!Net.Network.backlog}); [deadline] is the absolute expiry carried
    in the shim, [0L] (the default) meaning none. Only [Setup] work is
    charged against the per-source bucket. *)

val sheds : t -> (string * int) list
(** Shed counts by reason, sorted by reason — cheap introspection for
    experiment tables. *)
