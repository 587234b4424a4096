(* Unit and property tests for the observability layer (lib/obs):
   counter monotonicity, log-linear histogram bucketing and quantiles,
   registry memoization, and the text and JSON exporters. *)

module H = Obs.Histogram

let prop ?(count = 300) ~name ~print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen f)

(* ---- counters and gauges ---- *)

let test_counter_basics () =
  let c = Obs.Counter.create () in
  Alcotest.(check int) "starts at zero" 0 (Obs.Counter.value c);
  Obs.Counter.inc c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "accumulates" 42 (Obs.Counter.value c);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Obs.Counter.add: negative increment") (fun () ->
      Obs.Counter.add c (-1));
  Alcotest.(check int) "unchanged after rejection" 42 (Obs.Counter.value c)

let test_gauge_basics () =
  let g = Obs.Gauge.create () in
  Obs.Gauge.set g 2.5;
  Alcotest.(check (float 1e-9)) "set" 2.5 (Obs.Gauge.value g);
  Obs.Gauge.set g (-1.5);
  Alcotest.(check (float 1e-9)) "moves both ways" (-1.5) (Obs.Gauge.value g);
  Obs.Gauge.set_int g 7;
  Alcotest.(check (float 1e-9)) "set_int" 7.0 (Obs.Gauge.value g)

(* ---- histogram bucketing ---- *)

let test_bucket_boundaries () =
  let sub_bits = 3 in
  (* Below 2^sub_bits every value has its own exact bucket. *)
  for v = 0 to (1 lsl sub_bits) - 1 do
    Alcotest.(check int) "linear index" v (H.index_of_value ~sub_bits v);
    Alcotest.(check (pair int int))
      "linear bounds" (v, v)
      (H.bounds_of_index ~sub_bits v)
  done;
  (* First log-linear bucket starts exactly at 2^sub_bits. *)
  Alcotest.(check int) "first octave" (1 lsl sub_bits)
    (H.index_of_value ~sub_bits (1 lsl sub_bits));
  (* Every value lands inside its bucket's bounds, and bucket indices
     are monotone in the value. *)
  let check_containment v =
    let i = H.index_of_value ~sub_bits v in
    let lo, hi = H.bounds_of_index ~sub_bits i in
    if not (lo <= v && v <= hi) then
      Alcotest.failf "value %d outside bucket %d = [%d, %d]" v i lo hi
  in
  for v = 0 to 5000 do
    check_containment v
  done;
  List.iter check_containment
    [ max_int; max_int - 1; 1 lsl 40; (1 lsl 40) - 1; (1 lsl 40) + 1 ];
  (* Adjacent buckets tile the value axis with no gap or overlap. *)
  let rec walk i stop =
    if i < stop then begin
      let _, hi = H.bounds_of_index ~sub_bits i in
      let lo', _ = H.bounds_of_index ~sub_bits (i + 1) in
      Alcotest.(check int)
        (Printf.sprintf "bucket %d/%d contiguous" i (i + 1))
        (hi + 1) lo';
      walk (i + 1) stop
    end
  in
  walk 0 200

let test_histogram_known_quantiles () =
  (* With sub_bits = 8 every value below 256 is recorded exactly, so
     quantiles over 1..100 are exact order statistics. *)
  let h = H.create ~sub_bits:8 () in
  for v = 1 to 100 do
    H.add h v
  done;
  Alcotest.(check int) "count" 100 (H.count h);
  Alcotest.(check int) "sum" 5050 (H.sum h);
  Alcotest.(check int) "min" 1 (H.min_value h);
  Alcotest.(check int) "max" 100 (H.max_value h);
  Alcotest.(check (float 1e-9)) "p0 clamps to min" 1.0 (H.quantile h 0.0);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (H.quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p90" 90.0 (H.quantile h 0.9);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (H.quantile h 1.0)

let test_histogram_quantile_error_bound () =
  (* At the default sub_bits = 3 the midpoint estimate is within 1/2^3
     relative error of the true order statistic. *)
  let h = H.create () in
  for v = 1 to 10_000 do
    H.add h v
  done;
  List.iter
    (fun q ->
      let true_v = ceil (q *. 10_000.0) in
      let est = H.quantile h q in
      let rel = abs_float (est -. true_v) /. true_v in
      if rel > 0.125 then
        Alcotest.failf "q=%.2f: estimate %.1f vs true %.1f (rel %.3f)" q est
          true_v rel)
    [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ]

let test_histogram_empty () =
  let h = H.create () in
  Alcotest.(check int) "count" 0 (H.count h);
  Alcotest.(check int) "min" 0 (H.min_value h);
  Alcotest.(check int) "max" 0 (H.max_value h);
  Alcotest.(check bool) "quantile nan" true (Float.is_nan (H.quantile h 0.5));
  Alcotest.check_raises "negative value"
    (Invalid_argument "Obs.Histogram.add: negative value") (fun () ->
      H.add h (-1))

(* ---- registry ---- *)

let test_registry_memoization () =
  let r = Obs.Registry.create () in
  let c1 = Obs.Registry.counter r "a.b.c" in
  let c2 = Obs.Registry.counter r "a.b.c" in
  Alcotest.(check bool) "same instance" true (c1 == c2);
  (* Label order is canonicalized, so either spelling resolves to the
     same metric. *)
  let l1 = Obs.Registry.counter r ~labels:[ ("x", "1"); ("y", "2") ] "d" in
  let l2 = Obs.Registry.counter r ~labels:[ ("y", "2"); ("x", "1") ] "d" in
  Alcotest.(check bool) "labels canonical" true (l1 == l2);
  let l3 = Obs.Registry.counter r ~labels:[ ("x", "1") ] "d" in
  Alcotest.(check bool) "different labels differ" true (l1 != l3);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Obs.Registry: \"a.b.c\" already registered as another kind")
    (fun () -> ignore (Obs.Registry.gauge r "a.b.c"));
  Alcotest.(check int) "metric count" 3
    (List.length (Obs.Registry.metrics r))

(* ---- JSON export ---- *)

let test_export_text_and_json () =
  let r = Obs.Registry.create () in
  Obs.Counter.add
    (Obs.Registry.counter r ~labels:[ ("peer", "a\"b\\c\nd\x01e") ] "k.count")
    3;
  Obs.Gauge.set (Obs.Registry.gauge r "k.gauge") 1.5;
  Obs.Gauge.set (Obs.Registry.gauge r "k.huge") 1e300;
  Obs.Gauge.set (Obs.Registry.gauge r "k.nan") nan;
  List.iter (H.add (Obs.Registry.histogram r "k.hist")) [ 1; 12; 12; 300; 5000 ];
  let rows = Obs.Export.to_table r in
  List.iter
    (fun needle ->
      if
        not
          (List.exists
             (fun row -> String.starts_with ~prefix:needle (List.hd row))
             rows)
      then Alcotest.failf "table rows missing %S" needle)
    [ "k.count"; "k.gauge"; "k.hist" ];
  (* Golden bytes: JSON string escapes, a finite gauge in %.1f and in
     %.17g form, nan written as null, and a histogram's bucket list. *)
  Alcotest.(check string) "JSON bytes"
    ("{\"metrics\":["
     ^ "{\"name\":\"k.count\",\"labels\":{\"peer\":\"a\\\"b\\\\c\\nd\\u0001e\"},"
     ^ "\"type\":\"counter\",\"value\":3},"
     ^ "{\"name\":\"k.gauge\",\"type\":\"gauge\",\"value\":1.5},"
     ^ "{\"name\":\"k.hist\",\"type\":\"histogram\",\"sub_bits\":3,\"count\":5,"
     ^ "\"sum\":5325,\"min\":1,\"max\":5000,\"buckets\":[[1,1],[12,2],[49,1],[81,1]]},"
     ^ "{\"name\":\"k.huge\",\"type\":\"gauge\",\"value\":1.0000000000000001e+300},"
     ^ "{\"name\":\"k.nan\",\"type\":\"gauge\",\"value\":null}]}")
    (Obs.Export.to_json r)

(* ---- properties ---- *)

let gen_values = QCheck2.Gen.(list_size (int_bound 200) (int_bound 1_000_000))

let prop_histogram_order_insensitive =
  prop ~name:"histogram: insertion order cannot affect quantiles"
    ~print:QCheck2.Print.(list int)
    gen_values
    (fun vs ->
      QCheck2.assume (vs <> []);
      let fill order =
        let h = H.create () in
        List.iter (H.add h) order;
        h
      in
      let h1 = fill vs
      and h2 = fill (List.rev vs)
      and h3 = fill (List.sort compare vs) in
      List.for_all
        (fun q ->
          H.quantile h1 q = H.quantile h2 q
          && H.quantile h1 q = H.quantile h3 q)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 1.0 ]
      && H.buckets h1 = H.buckets h2
      && H.buckets h1 = H.buckets h3)

let prop_text_quantiles_match_live =
  prop ~name:"export: text p50/p99 equal the live histogram's quantiles"
    ~print:QCheck2.Print.(pair int (list int))
    QCheck2.Gen.(pair (1 -- 8) gen_values)
    (fun (sub_bits, vs) ->
      QCheck2.assume (vs <> []);
      let r = Obs.Registry.create () in
      let h = Obs.Registry.histogram r ~sub_bits "k.hist" in
      List.iter (H.add h) vs;
      let want =
        Printf.sprintf "p50=%.0f p99=%.0f" (H.quantile h 0.5)
          (H.quantile h 0.99)
      in
      let n = String.length want in
      let contains cell =
        let rec from i =
          i + n <= String.length cell
          && (String.sub cell i n = want || from (i + 1))
        in
        from 0
      in
      List.exists (List.exists contains) (Obs.Export.to_table r))

let prop_counter_monotone =
  prop ~name:"counter: value never decreases"
    ~print:QCheck2.Print.(list int)
    QCheck2.Gen.(list_size (int_bound 100) (int_range (-5) 1_000))
    (fun increments ->
      let c = Obs.Counter.create () in
      List.for_all
        (fun n ->
          let before = Obs.Counter.value c in
          (try Obs.Counter.add c n with Invalid_argument _ -> ());
          Obs.Counter.value c >= before)
        increments)

let () =
  Alcotest.run "obs"
    [ ( "counter-gauge",
        [ Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "gauge basics" `Quick test_gauge_basics;
          prop_counter_monotone
        ] );
      ( "histogram",
        [ Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "known quantiles" `Quick
            test_histogram_known_quantiles;
          Alcotest.test_case "quantile error bound" `Quick
            test_histogram_quantile_error_bound;
          Alcotest.test_case "empty histogram" `Quick test_histogram_empty;
          prop_histogram_order_insensitive
        ] );
      ( "registry",
        [ Alcotest.test_case "memoization and kinds" `Quick
            test_registry_memoization
        ] );
      ( "export",
        [ Alcotest.test_case "text and JSON" `Quick test_export_text_and_json;
          prop_text_quantiles_match_live
        ] )
    ]
