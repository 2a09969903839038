(* Unit and property tests for the stats library. *)

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

let check_float msg expected actual =
  if not (feq ~eps:1e-6 expected actual) then
    Alcotest.failf "%s: expected %f, got %f" msg expected actual

(* ------------------------------------------------------------------ *)
(* Summary *)

let test_summary_basic () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check int) "count" 5 (Stats.Summary.count s);
  check_float "mean" 3. (Stats.Summary.mean s);
  check_float "max" 5. (Stats.Summary.max_value s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check int) "count" 0 (Stats.Summary.count s);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Summary.mean s))

let test_summary_single () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 7.;
  check_float "mean" 7. (Stats.Summary.mean s)

let test_summary_merge () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  List.iter (Stats.Summary.add a) [ 1.; 2.; 3. ];
  List.iter (Stats.Summary.add b) [ 10.; 20. ];
  let m = Stats.Summary.merge a b in
  let all = Stats.Summary.create () in
  List.iter (Stats.Summary.add all) [ 1.; 2.; 3.; 10.; 20. ];
  Alcotest.(check int) "count" (Stats.Summary.count all) (Stats.Summary.count m);
  check_float "mean" (Stats.Summary.mean all) (Stats.Summary.mean m)

let test_summary_merge_empty () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  Stats.Summary.add b 4.;
  let m = Stats.Summary.merge a b in
  Alcotest.(check int) "count" 1 (Stats.Summary.count m);
  check_float "mean" 4. (Stats.Summary.mean m)

let prop_summary_merge_equals_sequential =
  QCheck.Test.make ~name:"summary merge == sequential"
    QCheck.(pair (list (float_bound_exclusive 1000.)) (list (float_bound_exclusive 1000.)))
    (fun (xs, ys) ->
      QCheck.assume (xs <> [] && ys <> []);
      let a = Stats.Summary.create () and b = Stats.Summary.create () in
      List.iter (Stats.Summary.add a) xs;
      List.iter (Stats.Summary.add b) ys;
      let m = Stats.Summary.merge a b in
      let seq = Stats.Summary.create () in
      List.iter (Stats.Summary.add seq) (xs @ ys);
      feq ~eps:1e-6 (Stats.Summary.mean m) (Stats.Summary.mean seq)
      && Stats.Summary.count m = Stats.Summary.count seq)

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create () in
  for i = 1 to 100 do
    Stats.Histogram.add h (float_of_int i)
  done;
  check_float "p50" 50.5 (Stats.Histogram.percentile h 50.);
  check_float "p0" 1. (Stats.Histogram.percentile h 0.);
  check_float "p100" 100. (Stats.Histogram.percentile h 100.);
  check_float "mean" 50.5 (Stats.Histogram.mean h)

let test_histogram_empty_raises () =
  let h = Stats.Histogram.create () in
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Histogram.percentile: empty") (fun () ->
      ignore (Stats.Histogram.percentile h 50.))

let test_histogram_fraction_below () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 1.; 2.; 3.; 4. ];
  check_float "below 2.5" 0.5 (Stats.Histogram.fraction_below h 2.5);
  check_float "below 0" 0. (Stats.Histogram.fraction_below h 0.);
  check_float "below 10" 1. (Stats.Histogram.fraction_below h 10.);
  check_float "below 2 (inclusive)" 0.5 (Stats.Histogram.fraction_below h 2.)

let test_histogram_cdf () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 0.; 10. ];
  let cdf = Stats.Histogram.cdf h ~points:3 in
  Alcotest.(check int) "points" 3 (List.length cdf);
  let _, last = List.nth cdf 2 in
  check_float "cdf ends at 1" 1. last

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 2 50) (float_bound_exclusive 1000.)) (pair (int_bound 100) (int_bound 100)))
    (fun (xs, (p1, p2)) ->
      QCheck.assume (List.length xs >= 2);
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) xs;
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.Histogram.percentile h (float_of_int lo)
      <= Stats.Histogram.percentile h (float_of_int hi) +. 1e-9)

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile within [min,max]"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 1 50) (float_bound_exclusive 1000.)) (int_bound 100))
    (fun (xs, p) ->
      QCheck.assume (xs <> []);
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) xs;
      let v = Stats.Histogram.percentile h (float_of_int p) in
      v >= Stats.Histogram.min_value h -. 1e-9
      && v <= Stats.Histogram.max_value h +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Timeseries *)

let test_timeseries_buckets () =
  let ts = Stats.Timeseries.create () in
  Stats.Timeseries.add ts ~time_us:100 1.;
  Stats.Timeseries.add ts ~time_us:900 3.;
  Stats.Timeseries.add ts ~time_us:1_100 10.;
  let buckets = Stats.Timeseries.bucketed ts ~bucket_us:1_000 in
  Alcotest.(check int) "bucket count" 2 (List.length buckets);
  let b0, s0 = List.hd buckets in
  Alcotest.(check int) "first bucket start" 0 b0;
  check_float "first bucket mean" 2. (Stats.Summary.mean s0)

let test_timeseries_monotonic_guard () =
  let ts = Stats.Timeseries.create () in
  Stats.Timeseries.add ts ~time_us:100 1.;
  Alcotest.check_raises "non-monotonic"
    (Invalid_argument "Timeseries.add: non-monotonic timestamp") (fun () ->
      Stats.Timeseries.add ts ~time_us:50 2.)

let test_timeseries_span () =
  let ts = Stats.Timeseries.create () in
  Alcotest.(check int) "empty span" 0 (Stats.Timeseries.span_us ts);
  Stats.Timeseries.add ts ~time_us:10 1.;
  Stats.Timeseries.add ts ~time_us:250 1.;
  Alcotest.(check int) "span" 240 (Stats.Timeseries.span_us ts)

let test_timeseries_max_in_buckets () =
  let ts = Stats.Timeseries.create () in
  Stats.Timeseries.add ts ~time_us:0 1.;
  Stats.Timeseries.add ts ~time_us:10 5.;
  Stats.Timeseries.add ts ~time_us:1_005 2.;
  let maxes = Stats.Timeseries.max_in_buckets ts ~bucket_us:1_000 in
  Alcotest.(check int) "buckets" 2 (List.length maxes);
  check_float "max of first" 5. (snd (List.hd maxes))

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Stats.Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Stats.Table.add_row t [ "1"; "2" ];
  Stats.Table.add_row t [ "333"; "4" ];
  let rendered = Format.asprintf "%a" Stats.Table.render t in
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
    loop 0
  in
  Alcotest.(check bool) "contains title" true (contains rendered "demo");
  Alcotest.(check bool) "contains padded cell" true (contains rendered "333")

let test_table_arity_guard () =
  let t = Stats.Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Stats.Table.add_row t [ "1" ])

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "basic" `Quick test_summary_basic;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "single" `Quick test_summary_single;
          Alcotest.test_case "merge" `Quick test_summary_merge;
          Alcotest.test_case "merge with empty" `Quick test_summary_merge_empty;
          QCheck_alcotest.to_alcotest prop_summary_merge_equals_sequential;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
          Alcotest.test_case "empty raises" `Quick test_histogram_empty_raises;
          Alcotest.test_case "fraction below" `Quick test_histogram_fraction_below;
          Alcotest.test_case "cdf" `Quick test_histogram_cdf;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
          QCheck_alcotest.to_alcotest prop_percentile_within_range;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "buckets" `Quick test_timeseries_buckets;
          Alcotest.test_case "monotonic guard" `Quick
            test_timeseries_monotonic_guard;
          Alcotest.test_case "span" `Quick test_timeseries_span;
          Alcotest.test_case "max in buckets" `Quick
            test_timeseries_max_in_buckets;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity guard" `Quick test_table_arity_guard;
        ] );
    ]
