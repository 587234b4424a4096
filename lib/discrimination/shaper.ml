type t = {
  engine : Net.Engine.t;
  rate_bps : int;
  burst_bytes : int;
  max_delay : int64;
  mutable tokens : float; (* bytes *)
  mutable last_refill : int64;
  mutable virtual_backlog : float; (* bytes awaiting service *)
  mutable last_drain : int64;
  mutable n_delayed : int;
  mutable n_dropped : int;
}

let create engine ~rate_bps ~burst_bytes ~max_delay =
  if rate_bps <= 0 then invalid_arg "Shaper.create: rate must be positive";
  { engine;
    rate_bps;
    burst_bytes;
    max_delay;
    tokens = float_of_int burst_bytes;
    last_refill = 0L;
    virtual_backlog = 0.0;
    last_drain = 0L;
    n_delayed = 0;
    n_dropped = 0
  }

let bytes_per_ns t = float_of_int t.rate_bps /. 8e9

let refill t =
  let now = Net.Engine.now t.engine in
  let dt = Int64.to_float (Int64.sub now t.last_refill) in
  t.last_refill <- now;
  t.tokens <-
    Float.min (float_of_int t.burst_bytes) (t.tokens +. (dt *. bytes_per_ns t));
  (* Drain the virtual queue at the shaped rate. *)
  let ddt = Int64.to_float (Int64.sub now t.last_drain) in
  t.last_drain <- now;
  t.virtual_backlog <- Float.max 0.0 (t.virtual_backlog -. (ddt *. bytes_per_ns t))

let decide t ~size =
  refill t;
  let fsize = float_of_int size in
  if t.tokens >= fsize && t.virtual_backlog <= 0.0 then begin
    t.tokens <- t.tokens -. fsize;
    Net.Network.Forward
  end
  else begin
    (* Time until this packet's bytes have been serviced. *)
    let wait_ns = (t.virtual_backlog +. fsize) /. bytes_per_ns t in
    if wait_ns > Int64.to_float t.max_delay then begin
      t.n_dropped <- t.n_dropped + 1;
      Net.Network.Drop
    end
    else begin
      t.virtual_backlog <- t.virtual_backlog +. fsize;
      t.n_delayed <- t.n_delayed + 1;
      Net.Network.Delay (Int64.of_float wait_ns)
    end
  end

let delayed t = t.n_delayed
let dropped t = t.n_dropped
