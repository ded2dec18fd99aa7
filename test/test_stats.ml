(* Tests for the psn_stats library. *)

module Summary = Core.Summary
module Quantile = Core.Quantile
module Cdf = Core.Cdf
module Histogram = Core.Histogram
module Boxplot = Core.Boxplot
module Confint = Core.Confint
module Timeseries = Core.Timeseries
module Regression = Core.Regression
module Table = Core.Table

let feps = Alcotest.float 1e-9
let fsmall = Alcotest.float 1e-6

(* --- Summary --- *)

let test_summary_basics () =
  let s = Summary.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  Alcotest.check feps "mean" 5. (Summary.mean s);
  Alcotest.(check int) "count" 8 (Summary.count s);
  Alcotest.check fsmall "variance" (32. /. 7.) (Summary.variance s)

let test_summary_empty () =
  let s = Summary.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Summary.mean s));
  Alcotest.(check bool) "variance nan" true (Float.is_nan (Summary.variance s))

let test_summary_single () =
  let s = Summary.of_array [| 3.5 |] in
  Alcotest.check feps "mean" 3.5 (Summary.mean s);
  Alcotest.(check bool) "variance nan with one sample" true (Float.is_nan (Summary.variance s))

let test_summary_rejects_nan () =
  let s = Summary.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Summary.add: non-finite observation") (fun () ->
      Summary.add s Float.nan)

(* --- Quantile --- *)

let test_quantile_known () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.check feps "median" 3. (Quantile.median xs);
  Alcotest.check feps "q0" 1. (Quantile.quantile xs 0.);
  Alcotest.check feps "q1" 5. (Quantile.quantile xs 1.);
  Alcotest.check feps "q.25" 2. (Quantile.quantile xs 0.25);
  Alcotest.check feps "interpolated" 1.5 (Quantile.quantile xs 0.125)

let test_quantile_unsorted_input () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  Alcotest.check feps "median of unsorted" 3. (Quantile.median xs)

let test_quantile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile.quantile: empty sample") (fun () ->
      ignore (Quantile.quantile [||] 0.5));
  Alcotest.check_raises "q out of range" (Invalid_argument "Quantile: q must be in [0, 1]")
    (fun () -> ignore (Quantile.quantile [| 1. |] 1.5))

(* Quantiles as computed before selection: sort a copy under
   [Float.compare], then interpolate (type 7). The selection-based
   [Quantile.quantile] must agree with it under [Float.equal]. *)
let sorted_quantile xs q =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Int.min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

(* A median-of-three killer for the selection kernel. A partition of
   [lo..hi] sorts the keys at [lo], the midpoint and [hi], parks the
   middle one at [hi - 1] as the pivot, and ends with the pivot at its
   final place. When [lo] and the midpoint hold the range's two smallest
   keys, that place is [lo + 1]: the round peels off two keys, and the
   pivot's old slot takes the key from [lo + 1]. Replaying those moves on
   positions, and handing out ranks in that order, yields an input on
   which every round is this bad one, so selecting the median runs out
   of its 2 log2 n rounds and finishes on the heapsort fallback. *)
let median_of_three_killer n =
  let slot = Array.init n Fun.id in
  let rank = Array.make n (-1) in
  let next = ref 0 in
  let assign pos =
    rank.(slot.(pos)) <- !next;
    incr next
  in
  let swap i j =
    let t = slot.(i) in
    slot.(i) <- slot.(j);
    slot.(j) <- t
  in
  let hi = n - 1 in
  let lo = ref 0 in
  while hi - !lo >= 16 do
    let mid = !lo + ((hi - !lo) / 2) in
    assign !lo;
    assign mid;
    swap mid (hi - 1);
    swap (!lo + 1) (hi - 1);
    lo := !lo + 2
  done;
  Array.iteri
    (fun i r ->
      if r < 0 then begin
        rank.(i) <- !next;
        incr next
      end)
    rank;
  Array.map float_of_int rank

let test_quantile_selection_fallback () =
  List.iter
    (fun n ->
      let xs = median_of_three_killer n in
      List.iter
        (fun q ->
          Alcotest.(check (float 0.)) (Printf.sprintf "n=%d q=%g" n q) (sorted_quantile xs q)
            (Quantile.quantile xs q))
        [ 0.; 0.25; 0.5; 0.75; 1. ])
    [ 17; 100; 1000; 3000 ]

(* --- Cdf --- *)

let test_cdf_eval () =
  let cdf = Cdf.of_samples [| 1.; 2.; 2.; 3. |] in
  Alcotest.check feps "below support" 0. (Cdf.eval cdf 0.5);
  Alcotest.check feps "at 1" 0.25 (Cdf.eval cdf 1.);
  Alcotest.check feps "at 2" 0.75 (Cdf.eval cdf 2.);
  Alcotest.check feps "at 3" 1. (Cdf.eval cdf 3.);
  Alcotest.check feps "above" 1. (Cdf.eval cdf 100.)

let test_cdf_points () =
  let cdf = Cdf.of_samples [| 1.; 2.; 2.; 3. |] in
  let points = Cdf.points cdf in
  Alcotest.(check int) "distinct xs" 3 (List.length points);
  let _, p2 = List.nth points 1 in
  Alcotest.check feps "P at 2" 0.75 p2

let test_cdf_inverse () =
  let cdf = Cdf.of_samples (Array.init 100 float_of_int) in
  Alcotest.check fsmall "median" 49.5 (Cdf.inverse cdf 0.5)

let test_cdf_support () =
  let cdf = Cdf.of_samples [| 5.; -2.; 9. |] in
  let lo, hi = Cdf.support cdf in
  Alcotest.check feps "lo" (-2.) lo;
  Alcotest.check feps "hi" 9. hi

let test_cdf_ks () =
  let a = Cdf.of_samples (Array.init 100 float_of_int) in
  let b = Cdf.of_samples (Array.init 100 (fun i -> float_of_int i +. 0.5)) in
  let d = Cdf.ks_distance a b in
  Alcotest.(check bool) "small shift small ks" true (d <= 0.02);
  let far = Cdf.of_samples (Array.init 100 (fun i -> float_of_int i +. 1000.)) in
  Alcotest.check feps "disjoint supports" 1. (Cdf.ks_distance a far)

let test_cdf_tabulate () =
  let cdf = Cdf.of_samples (Array.init 10 float_of_int) in
  let tab = Cdf.tabulate cdf ~n:5 () in
  Alcotest.(check int) "5 points" 5 (List.length tab);
  let last_x, last_p = List.nth tab 4 in
  Alcotest.check feps "last x" 9. last_x;
  Alcotest.check feps "last p" 1. last_p

(* --- Histogram --- *)

let test_histogram_counts () =
  let h =
    Histogram.create ~lo:0. ~hi:10. ~bins:5 (List.to_seq [ 0.5; 1.; 2.5; 9.9; -1.; 10.; 11. ])
  in
  Alcotest.(check (array int)) "counts" [| 2; 1; 0; 0; 1 |] (Histogram.counts h);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 2 (Histogram.overflow h);
  Alcotest.(check int) "total" 7 (Histogram.total h)

let test_histogram_edges_centers () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 Seq.empty in
  Alcotest.check feps "center 0" 1. (Histogram.bin_center h 0);
  Alcotest.check feps "center 4" 9. (Histogram.bin_center h 4)

(* --- Boxplot --- *)

let test_boxplot_known () =
  let b = Boxplot.of_samples [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9. |] in
  Alcotest.check feps "median" 5. b.Boxplot.median;
  Alcotest.check feps "q1" 3. b.Boxplot.q1;
  Alcotest.check feps "q3" 7. b.Boxplot.q3;
  Alcotest.check feps "whisker lo" 1. b.Boxplot.whisker_lo;
  Alcotest.check feps "whisker hi" 9. b.Boxplot.whisker_hi;
  Alcotest.(check int) "no outliers" 0 (Array.length b.Boxplot.outliers)

let test_boxplot_outlier () =
  let b = Boxplot.of_samples [| 1.; 2.; 3.; 4.; 5.; 100. |] in
  Alcotest.(check int) "one outlier" 1 (Array.length b.Boxplot.outliers);
  Alcotest.check feps "outlier value" 100. b.Boxplot.outliers.(0);
  Alcotest.(check bool) "whisker below fence" true (b.Boxplot.whisker_hi <= 5.)

(* --- Confint --- *)

let test_confint_formula () =
  let xs = Array.init 100 (fun i -> float_of_int (i mod 10)) in
  let s = Summary.of_array xs in
  let lo, hi = Confint.of_summary s Confint.C95 in
  let expected_half = 1.96 *. Summary.stddev s /. 10. in
  Alcotest.check fsmall "halfwidth" expected_half (Confint.halfwidth s Confint.C95);
  Alcotest.check fsmall "centred" (Summary.mean s) ((lo +. hi) /. 2.);
  Alcotest.(check bool) "c99 wider" true
    (Confint.halfwidth s Confint.C99 > Confint.halfwidth s Confint.C90)

(* --- Timeseries --- *)

let test_timeseries_binning () =
  let ts = Timeseries.bin_events ~t0:0. ~t1:10. ~bin:2.5 (List.to_seq [ 0.; 1.; 2.6; 9.9; 10.0 ]) in
  Alcotest.(check (array int)) "counts" [| 2; 1; 0; 1 |] (Timeseries.counts ts);
  Alcotest.(check int) "bins" 4 (Array.length (Timeseries.counts ts))

let test_timeseries_cumulative () =
  let ts = Timeseries.bin_events ~t0:0. ~t1:4. ~bin:1. (List.to_seq [ 0.5; 1.5; 1.7; 3.9 ]) in
  let cum = Timeseries.cumulative ts in
  let _, last = cum.(Array.length cum - 1) in
  Alcotest.(check int) "total" 4 last;
  let _, second = cum.(1) in
  Alcotest.(check int) "running" 3 second

let test_timeseries_rate_stability () =
  let ts = Timeseries.bin_events ~t0:0. ~t1:100. ~bin:10. (Seq.init 100 (fun i -> float_of_int i)) in
  Alcotest.check fsmall "rate 1/s" 1. (Timeseries.mean_rate ts);
  Alcotest.check fsmall "perfectly stable" 0. (Timeseries.stability ts)

(* --- Regression --- *)

let test_regression_exact_line () =
  let points = List.init 10 (fun i -> (float_of_int i, (3. *. float_of_int i) +. 2.)) in
  let fit = Regression.linear points in
  Alcotest.check fsmall "slope" 3. fit.Regression.slope;
  Alcotest.check fsmall "intercept" 2. fit.Regression.intercept;
  Alcotest.check fsmall "r2" 1. fit.Regression.r2

let test_regression_exponential () =
  let points = List.init 10 (fun i -> (float_of_int i, 5. *. Float.exp (0.7 *. float_of_int i))) in
  let fit = Regression.exponential_rate points in
  Alcotest.check fsmall "rate" 0.7 fit.Regression.slope;
  Alcotest.check fsmall "prefactor" 5. (Float.exp fit.Regression.intercept)

let test_regression_errors () =
  Alcotest.check_raises "one point" (Invalid_argument "Regression.linear: need at least two points")
    (fun () -> ignore (Regression.linear [ (1., 1.) ]));
  Alcotest.check_raises "no x variance" (Invalid_argument "Regression.linear: zero variance in x")
    (fun () -> ignore (Regression.linear [ (1., 1.); (1., 2.) ]))

(* --- Table --- *)

let test_table_renders_cells () =
  let out = Table.render ~header:[ "name"; "value" ] [ [ "alpha"; "1" ]; [ "bb"; "23" ] ] in
  let contains s sub =
    let slen = String.length s and sublen = String.length sub in
    let rec scan i = i + sublen <= slen && (String.sub s i sublen = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "alpha" true (contains out "alpha");
  Alcotest.(check bool) "23" true (contains out "23");
  Alcotest.(check bool) "rule" true (contains out "----")

let test_table_right_align () =
  let out = Table.render ~align:[ Table.Right ] ~header:[ "n" ] [ [ "1" ]; [ "100" ] ] in
  let lines = String.split_on_char '\n' out in
  (* the "1" row must be right-padded to width 3: "  1" *)
  Alcotest.(check string) "right aligned" "  1" (List.nth lines 2)

let test_table_ragged_rows () =
  let out = Table.render ~header:[ "a"; "b" ] [ [ "only" ] ] in
  Alcotest.(check bool) "renders" true (String.length out > 0)

(* --- qcheck properties --- *)

(* Samples of 1 to 3000 keys in the shapes selection handles
   differently: random, heavy duplicates, all equal, sorted, reversed,
   organ pipe, and sprinkled with NaN, infinities and signed zeros. *)
let gen_sample =
  let open QCheck2.Gen in
  let* n = int_range 1 3000 in
  let floats = array_size (pure n) (float_range (-1e6) 1e6) in
  let sorted cmp =
    map
      (fun a ->
        let a = Array.copy a in
        Array.sort cmp a;
        a)
      floats
  in
  let special =
    oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 0.; -0.; 1.; -1. ]
  in
  oneof
    [
      floats;
      array_size (pure n) (map float_of_int (int_range 0 5));
      map (Array.make n) (float_range (-10.) 10.);
      sorted Float.compare;
      sorted (fun a b -> Float.compare b a);
      pure (Array.init n (fun i -> float_of_int (Int.min i (n - 1 - i))));
      array_size (pure n) (frequency [ (3, float_range (-100.) 100.); (1, special) ]);
    ]

let qcheck_tests =
  let open QCheck2 in
  let float_list = Gen.(list_size (int_range 1 200) (float_range (-1e6) 1e6)) in
  [
    Test.make ~name:"cdf eval is monotone" ~count:200 float_list (fun xs ->
        let cdf = Cdf.of_samples (Array.of_list xs) in
        let lo, hi = Cdf.support cdf in
        let probe = List.init 20 (fun i -> lo +. ((hi -. lo) *. float_of_int i /. 19.)) in
        let values = List.map (Cdf.eval cdf) probe in
        let rec monotone = function
          | a :: (b :: _ as rest) -> a <= b && monotone rest
          | _ -> true
        in
        monotone values);
    Test.make ~name:"quantiles lie within sample bounds" ~count:200 float_list (fun xs ->
        let arr = Array.of_list xs in
        let q = Quantile.quantile arr 0.37 in
        let lo = List.fold_left Float.min Float.infinity xs in
        let hi = List.fold_left Float.max Float.neg_infinity xs in
        q >= lo && q <= hi);
    Test.make ~name:"selection quantile equals sort-then-interpolate" ~count:300
      ~print:(fun (xs, q) ->
        Printf.sprintf "n=%d q=%h head=[%s]" (Array.length xs) q
          (String.concat "; "
             (List.map (Printf.sprintf "%h")
                (Array.to_list (Array.sub xs 0 (Int.min 8 (Array.length xs)))))))
      Gen.(pair gen_sample (oneof [ float_range 0. 1.; oneofl [ 0.; 0.5; 1. ] ]))
      (fun (xs, q) ->
        let before = Array.copy xs in
        let got = Quantile.quantile xs q in
        Float.equal got (sorted_quantile xs q)
        && Array.for_all2
             (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
             before xs);
    Test.make ~name:"histogram total counts every event" ~count:200
      Gen.(list_size (int_range 0 300) (float_range (-10.) 20.))
      (fun xs ->
        let h = Histogram.create ~lo:0. ~hi:10. ~bins:7 (List.to_seq xs) in
        Histogram.total h = List.length xs);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "psn_stats"
    [
      ( "summary",
        [
          Alcotest.test_case "basics" `Quick test_summary_basics;
          Alcotest.test_case "empty" `Quick test_summary_empty;
          Alcotest.test_case "single" `Quick test_summary_single;
          Alcotest.test_case "rejects nan" `Quick test_summary_rejects_nan;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "known values" `Quick test_quantile_known;
          Alcotest.test_case "unsorted input" `Quick test_quantile_unsorted_input;
          Alcotest.test_case "errors" `Quick test_quantile_errors;
          Alcotest.test_case "selection fallback on a median-of-three killer" `Quick
            test_quantile_selection_fallback;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "eval" `Quick test_cdf_eval;
          Alcotest.test_case "points" `Quick test_cdf_points;
          Alcotest.test_case "inverse" `Quick test_cdf_inverse;
          Alcotest.test_case "support" `Quick test_cdf_support;
          Alcotest.test_case "ks distance" `Quick test_cdf_ks;
          Alcotest.test_case "tabulate" `Quick test_cdf_tabulate;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "counts/under/overflow" `Quick test_histogram_counts;
          Alcotest.test_case "edges and centers" `Quick test_histogram_edges_centers;
        ] );
      ( "boxplot",
        [
          Alcotest.test_case "known five numbers" `Quick test_boxplot_known;
          Alcotest.test_case "outlier detection" `Quick test_boxplot_outlier;
        ] );
      ("confint", [ Alcotest.test_case "normal approx formula" `Quick test_confint_formula ]);
      ( "timeseries",
        [
          Alcotest.test_case "binning" `Quick test_timeseries_binning;
          Alcotest.test_case "cumulative" `Quick test_timeseries_cumulative;
          Alcotest.test_case "rate and stability" `Quick test_timeseries_rate_stability;
        ] );
      ( "regression",
        [
          Alcotest.test_case "exact line" `Quick test_regression_exact_line;
          Alcotest.test_case "exponential fit" `Quick test_regression_exponential;
          Alcotest.test_case "errors" `Quick test_regression_errors;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders cells" `Quick test_table_renders_cells;
          Alcotest.test_case "right align" `Quick test_table_right_align;
          Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
        ] );
      ("properties", qcheck_tests);
    ]
