type config = { rate : float; burst : float }

type t = {
  config : config;
  mutable tokens : float;
  mutable last_refill : int64;
  mutable granted : int;
  mutable denied : int;
}

let create config ~now =
  if config.rate < 0.0 then
    invalid_arg "Token_bucket.create: rate must be non-negative";
  if config.burst <= 0.0 then
    invalid_arg "Token_bucket.create: burst must be positive";
  { config; tokens = config.burst; last_refill = now; granted = 0; denied = 0 }

let refill t ~now =
  if Int64.compare now t.last_refill > 0 then begin
    let dt = Int64.to_float (Int64.sub now t.last_refill) *. 1e-9 in
    t.last_refill <- now;
    t.tokens <- Float.min t.config.burst (t.tokens +. (dt *. t.config.rate))
  end

let take ?(cost = 1.0) t ~now =
  refill t ~now;
  if t.tokens >= cost then begin
    t.tokens <- t.tokens -. cost;
    t.granted <- t.granted + 1;
    true
  end
  else begin
    t.denied <- t.denied + 1;
    false
  end

let granted t = t.granted
let denied t = t.denied
