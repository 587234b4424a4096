type histogram_snapshot = {
  sub_bits : int;
  count : int;
  sum : int;
  min_value : int;
  max_value : int;
  buckets : (int * int) list;
}

type value =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_snapshot

type metric = {
  name : string;
  labels : (string * string) list;
  value : value;
}

let snapshot reg =
  List.map
    (fun (name, labels, m) ->
      let value =
        match (m : Registry.metric) with
        | Registry.Counter c -> Counter (Counter.value c)
        | Registry.Gauge g -> Gauge (Gauge.value g)
        | Registry.Histogram h ->
          Histogram
            { sub_bits = Histogram.sub_bits h;
              count = Histogram.count h;
              sum = Histogram.sum h;
              min_value = Histogram.min_value h;
              max_value = Histogram.max_value h;
              buckets = Histogram.buckets h
            }
      in
      { name; labels; value })
    (Registry.metrics reg)

let key_to_string m =
  match m.labels with
  | [] -> m.name
  | ls ->
    m.name ^ "{"
    ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
    ^ "}"

let hist_quantile hs q =
  Histogram.bucket_quantile ~sub_bits:hs.sub_bits ~count:hs.count
    ~min_value:hs.min_value ~max_value:hs.max_value hs.buckets q

let value_summary = function
  | Counter v -> string_of_int v
  | Gauge v -> Printf.sprintf "%g" v
  | Histogram hs ->
    if hs.count = 0 then "n=0"
    else
      Printf.sprintf "n=%d mean=%.1f p50=%.0f p99=%.0f max=%d" hs.count
        (float_of_int hs.sum /. float_of_int hs.count)
        (hist_quantile hs 0.5) (hist_quantile hs 0.99) hs.max_value

(* ---- JSON writer ---- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let float_to_json f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    (* %.17g round-trips every finite float through float_of_string *)
    Printf.sprintf "%.17g" f

let json_of_snapshot snap =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"metrics\":[";
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      escape_string b m.name;
      if m.labels <> [] then begin
        Buffer.add_string b ",\"labels\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char b ',';
            escape_string b k;
            Buffer.add_char b ':';
            escape_string b v)
          m.labels;
        Buffer.add_char b '}'
      end;
      (match m.value with
       | Counter v ->
         Buffer.add_string b ",\"type\":\"counter\",\"value\":";
         Buffer.add_string b (string_of_int v)
       | Gauge v ->
         Buffer.add_string b ",\"type\":\"gauge\",\"value\":";
         if Float.is_finite v then Buffer.add_string b (float_to_json v)
         else Buffer.add_string b "null"
       | Histogram hs ->
         Buffer.add_string b
           (Printf.sprintf
              ",\"type\":\"histogram\",\"sub_bits\":%d,\"count\":%d,\"sum\":%d,\"min\":%d,\"max\":%d,\"buckets\":["
              hs.sub_bits hs.count hs.sum hs.min_value hs.max_value);
         List.iteri
           (fun j (idx, c) ->
             if j > 0 then Buffer.add_char b ',';
             Buffer.add_string b (Printf.sprintf "[%d,%d]" idx c))
           hs.buckets;
         Buffer.add_char b ']');
      Buffer.add_char b '}')
    snap;
  Buffer.add_string b "]}";
  Buffer.contents b

let to_json reg = json_of_snapshot (snapshot reg)

(* ---- table rows ---- *)

let kind_of = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let to_table reg =
  List.map
    (fun m -> [ key_to_string m; kind_of m.value; value_summary m.value ])
    (snapshot reg)
