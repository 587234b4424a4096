type aggregate_key = {
  src_prefix : Net.Ipaddr.Prefix.t;
  key_setup : bool;
}

type config = {
  window : int64;
  threshold_pps : float;
  limit_pps : float;
  release_after : int64;
}

(* Rate enforcement delegates to the shared overload token bucket; this
   record keeps only the detection state (windowed rate measurement and
   the armed flag). *)
type bucket = {
  mutable count : int;
  mutable window_start : int64;
  limiter : Overload.Token_bucket.t;
  mutable armed : bool;
  mutable last_hot : int64;
}

type t = {
  engine : Net.Engine.t;
  config : config;
  buckets : (aggregate_key, bucket) Hashtbl.t;
  mutable n_admitted : int;
  mutable n_limited : int;
}

let create engine config =
  { engine; config; buckets = Hashtbl.create 64; n_admitted = 0; n_limited = 0 }

let is_key_setup (o : Net.Observation.t) =
  o.protocol = 253
  &&
  match o.shim with
  | Some s when String.length s > 0 -> Char.code s.[0] <= 1
  | Some _ | None -> false

let key_of (o : Net.Observation.t) =
  { src_prefix = Net.Ipaddr.Prefix.make o.src 24; key_setup = is_key_setup o }

let bucket t key =
  match Hashtbl.find_opt t.buckets key with
  | Some b -> b
  | None ->
    let now = Net.Engine.now t.engine in
    let b =
      { count = 0;
        window_start = now;
        limiter =
          Overload.Token_bucket.create
            { rate = t.config.limit_pps; burst = t.config.limit_pps }
            ~now;
        armed = false;
        last_hot = 0L
      }
    in
    Hashtbl.replace t.buckets key b;
    b

let observe t key b =
  let now = Net.Engine.now t.engine in
  if Int64.compare (Int64.sub now b.window_start) t.config.window > 0 then begin
    let elapsed_s = Int64.to_float (Int64.sub now b.window_start) *. 1e-9 in
    let rate = float_of_int b.count /. elapsed_s in
    if rate > t.config.threshold_pps then begin
      b.armed <- true;
      b.last_hot <- now
    end
    else if
      b.armed
      && Int64.compare (Int64.sub now b.last_hot) t.config.release_after > 0
    then b.armed <- false;
    b.count <- 0;
    b.window_start <- now
  end;
  b.count <- b.count + 1;
  ignore key

let limit_decision t b =
  let now = Net.Engine.now t.engine in
  if Overload.Token_bucket.take b.limiter ~now then begin
    t.n_admitted <- t.n_admitted + 1;
    Net.Network.Forward
  end
  else begin
    t.n_limited <- t.n_limited + 1;
    Net.Network.Drop
  end

let middleware t (o : Net.Observation.t) =
  let key = key_of o in
  let b = bucket t key in
  observe t key b;
  if b.armed then limit_decision t b
  else begin
    t.n_admitted <- t.n_admitted + 1;
    Net.Network.Forward
  end

let armed t =
  Hashtbl.fold (fun k b acc -> if b.armed then k :: acc else acc) t.buckets []

let propagate t net domain =
  (* Upstream enforcement consults the same controller state, so limits
     armed here take effect in the upstream domain on its next packet. *)
  Net.Network.add_middleware net domain (fun o ->
      let key = key_of o in
      match Hashtbl.find_opt t.buckets key with
      | Some b when b.armed -> limit_decision t b
      | Some _ | None -> Net.Network.Forward)

let admitted t = t.n_admitted
let limited t = t.n_limited
