(* Tests for the psn_prng library: determinism, ranges, and the first
   and second moments of every variate generator. *)

module Rng = Core.Rng
module Dist = Core.Dist

let check_float = Alcotest.(check (float 1e-9))

let mean_of f n rng =
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. f rng
  done;
  !acc /. float_of_int n

(* --- splitmix64 / xoshiro --- *)

let test_splitmix_deterministic () =
  let a = Core.Splitmix64.create 99L and b = Core.Splitmix64.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Core.Splitmix64.next a) (Core.Splitmix64.next b)
  done

let test_splitmix_distinct_seeds () =
  let a = Core.Splitmix64.create 1L and b = Core.Splitmix64.create 2L in
  Alcotest.(check bool) "different first output" false
    (Int64.equal (Core.Splitmix64.next a) (Core.Splitmix64.next b))

let test_xoshiro_rejects_zero_state () =
  Alcotest.check_raises "all-zero state" (Invalid_argument "Xoshiro.of_state: all-zero state")
    (fun () -> ignore (Core.Xoshiro.of_state (0L, 0L, 0L, 0L)))

let test_xoshiro_copy_independent () =
  let a = Core.Xoshiro.of_seed 5L in
  let b = Core.Xoshiro.copy a in
  let va = Core.Xoshiro.next a in
  (* advancing [a] must not have advanced [b] *)
  Alcotest.(check int64) "copy starts at same point" va (Core.Xoshiro.next b)

let test_xoshiro_split_diverges () =
  let a = Core.Xoshiro.of_seed 5L in
  let child = Core.Xoshiro.split a in
  (* child continues the original sequence; parent has jumped far away *)
  Alcotest.(check bool) "streams differ" false
    (Int64.equal (Core.Xoshiro.next a) (Core.Xoshiro.next child))

let test_xoshiro_jump_changes_state () =
  let a = Core.Xoshiro.of_seed 5L in
  let b = Core.Xoshiro.of_seed 5L in
  Core.Xoshiro.jump b;
  Alcotest.(check bool) "jumped stream differs" false
    (Int64.equal (Core.Xoshiro.next a) (Core.Xoshiro.next b))

(* --- Rng variates --- *)

let test_unit_float_range () =
  let rng = Rng.create ~seed:1L () in
  for _ = 1 to 10_000 do
    let v = Rng.unit_float rng in
    if not (v >= 0. && v < 1.) then Alcotest.failf "unit_float out of range: %f" v
  done

let test_unit_float_mean () =
  let rng = Rng.create ~seed:2L () in
  let m = mean_of Rng.unit_float 50_000 rng in
  Alcotest.(check (float 0.01)) "mean 0.5" 0.5 m

let test_int_bounds () =
  let rng = Rng.create ~seed:3L () in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v
  done

let test_int_uniformity () =
  let rng = Rng.create ~seed:4L () in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let v = Rng.int rng 5 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      if Float.abs (frac -. 0.2) > 0.01 then Alcotest.failf "bucket fraction %f too far from 0.2" frac)
    counts

let test_int_invalid () =
  let rng = Rng.create () in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_int_in_range () =
  let rng = Rng.create ~seed:5L () in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:(-3) ~hi:4 in
    if v < -3 || v > 4 then Alcotest.failf "int_in_range out of range: %d" v
  done

let test_exponential_mean () =
  let rng = Rng.create ~seed:6L () in
  let m = mean_of (fun r -> Rng.exponential r ~rate:0.5) 50_000 rng in
  Alcotest.(check (float 0.05)) "mean 1/rate" 2.0 m

let test_exponential_positive () =
  let rng = Rng.create ~seed:7L () in
  for _ = 1 to 1000 do
    if Rng.exponential rng ~rate:3. < 0. then Alcotest.fail "negative exponential"
  done

let test_poisson_mean_small () =
  let rng = Rng.create ~seed:8L () in
  let m = mean_of (fun r -> float_of_int (Rng.poisson r ~mean:3.5)) 30_000 rng in
  Alcotest.(check (float 0.08)) "mean 3.5" 3.5 m

let test_poisson_mean_large () =
  let rng = Rng.create ~seed:9L () in
  let m = mean_of (fun r -> float_of_int (Rng.poisson r ~mean:120.)) 20_000 rng in
  Alcotest.(check (float 1.0)) "mean 120 (normal approx)" 120. m

let test_poisson_zero () =
  let rng = Rng.create () in
  Alcotest.(check int) "mean 0" 0 (Rng.poisson rng ~mean:0.)

let test_gaussian_moments () =
  let rng = Rng.create ~seed:10L () in
  let n = 50_000 in
  let sum = ref 0. and sq = ref 0. in
  for _ = 1 to n do
    let v = Rng.gaussian rng ~mu:2. ~sigma:3. in
    sum := !sum +. v;
    sq := !sq +. (v *. v)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check (float 0.1)) "mean" 2. mean;
  Alcotest.(check (float 0.3)) "variance" 9. var

let test_pareto_min () =
  let rng = Rng.create ~seed:11L () in
  for _ = 1 to 1000 do
    if Rng.pareto rng ~alpha:2. ~x_min:1.5 < 1.5 then Alcotest.fail "pareto below x_min"
  done

let test_bernoulli_degenerate () =
  let rng = Rng.create ~seed:12L () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 false" false (Rng.bernoulli rng 0.);
    Alcotest.(check bool) "p=1 true" true (Rng.bernoulli rng 1.)
  done

let test_choice_weighted () =
  let rng = Rng.create ~seed:13L () in
  let counts = Array.make 3 0 in
  let n = 30_000 in
  for _ = 1 to n do
    let i = Rng.choice_weighted rng ~weights:[| 1.; 2.; 7. |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check (float 0.02)) "weight 0.1" 0.1 (float_of_int counts.(0) /. float_of_int n);
  Alcotest.(check (float 0.02)) "weight 0.7" 0.7 (float_of_int counts.(2) /. float_of_int n)

let test_choice_weighted_zero_total () =
  let rng = Rng.create () in
  Alcotest.check_raises "zero weights"
    (Invalid_argument "Rng.choice_weighted: weights must sum to > 0") (fun () ->
      ignore (Rng.choice_weighted rng ~weights:[| 0.; 0. |]))

let test_shuffle_is_permutation () =
  let rng = Rng.create ~seed:14L () in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle_in_place rng arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:15L () in
  let sample = Rng.sample_without_replacement rng ~k:10 ~n:30 in
  Alcotest.(check int) "size" 10 (Array.length sample);
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun v ->
      if v < 0 || v >= 30 then Alcotest.failf "out of range %d" v;
      if Hashtbl.mem seen v then Alcotest.failf "duplicate %d" v;
      Hashtbl.add seen v ())
    sample

let test_split_streams_differ () =
  let a = Rng.create ~seed:16L () in
  let b = Rng.split a in
  let xs = List.init 16 (fun _ -> Rng.bits64 a) in
  let ys = List.init 16 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" false (xs = ys)

(* --- Dist --- *)

let test_dist_sample_means () =
  let rng = Rng.create ~seed:17L () in
  let check_mean name dist expected tolerance =
    let m = mean_of (fun r -> Dist.sample r dist) 40_000 rng in
    Alcotest.(check (float tolerance)) name expected m
  in
  check_mean "constant" (Dist.Constant 4.2) 4.2 1e-9;
  check_mean "uniform" (Dist.Uniform { lo = 2.; hi = 6. }) 4.0 0.05;
  check_mean "exponential" (Dist.Exponential { rate = 0.25 }) 4.0 0.1;
  check_mean "gaussian" (Dist.Gaussian { mu = -1.; sigma = 2. }) (-1.) 0.05

let test_dist_truncated_bounds () =
  let rng = Rng.create ~seed:18L () in
  let dist = Dist.Truncated { dist = Dist.Exponential { rate = 0.01 }; lo = 5.; hi = 50. } in
  for _ = 1 to 2000 do
    let v = Dist.sample rng dist in
    if v < 5. || v > 50. then Alcotest.failf "truncated sample out of bounds: %f" v
  done

let test_dist_mean_analytic () =
  check_float "constant" 3. (Dist.mean (Dist.Constant 3.));
  check_float "uniform" 1.5 (Dist.mean (Dist.Uniform { lo = 1.; hi = 2. }));
  check_float "exponential" 4. (Dist.mean (Dist.Exponential { rate = 0.25 }));
  check_float "pareto" 3. (Dist.mean (Dist.Pareto { alpha = 3.; x_min = 2. }));
  Alcotest.(check bool)
    "pareto alpha<=1 infinite" true
    (Float.is_integer (Dist.mean (Dist.Pareto { alpha = 1.; x_min = 2. }))
    = Float.is_integer Float.infinity
    && Dist.mean (Dist.Pareto { alpha = 1.; x_min = 2. }) = Float.infinity)

(* --- qcheck properties --- *)

let qcheck_tests =
  let open QCheck2 in
  [
    Test.make ~name:"Rng.int always within bound" ~count:500
      Gen.(pair (int_range 1 10_000) (int_range 0 1_000_000))
      (fun (bound, seed) ->
        let rng = Rng.create ~seed:(Int64.of_int seed) () in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    Test.make ~name:"Rng.float always within bound" ~count:500
      Gen.(pair (float_range 0.001 1e6) (int_range 0 1_000_000))
      (fun (bound, seed) ->
        let rng = Rng.create ~seed:(Int64.of_int seed) () in
        let v = Rng.float rng bound in
        v >= 0. && v < bound);
    Test.make ~name:"sample_without_replacement distinct and in range" ~count:200
      Gen.(pair (int_range 0 50) (int_range 0 1_000_000))
      (fun (k, seed) ->
        let n = 50 in
        let rng = Rng.create ~seed:(Int64.of_int seed) () in
        let sample = Rng.sample_without_replacement rng ~k ~n in
        let distinct = List.sort_uniq Int.compare (Array.to_list sample) in
        List.length distinct = k && List.for_all (fun v -> v >= 0 && v < n) distinct);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "psn_prng"
    [
      ( "splitmix64",
        [
          Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "distinct seeds" `Quick test_splitmix_distinct_seeds;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "rejects zero state" `Quick test_xoshiro_rejects_zero_state;
          Alcotest.test_case "copy independent" `Quick test_xoshiro_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_xoshiro_split_diverges;
          Alcotest.test_case "jump changes state" `Quick test_xoshiro_jump_changes_state;
        ] );
      ( "rng",
        [
          Alcotest.test_case "unit_float range" `Quick test_unit_float_range;
          Alcotest.test_case "unit_float mean" `Quick test_unit_float_mean;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
          Alcotest.test_case "int_in_range" `Quick test_int_in_range;
          Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
          Alcotest.test_case "poisson mean (small)" `Quick test_poisson_mean_small;
          Alcotest.test_case "poisson mean (large)" `Quick test_poisson_mean_large;
          Alcotest.test_case "poisson mean zero" `Quick test_poisson_zero;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "pareto min" `Quick test_pareto_min;
          Alcotest.test_case "bernoulli degenerate" `Quick test_bernoulli_degenerate;
          Alcotest.test_case "choice_weighted frequencies" `Quick test_choice_weighted;
          Alcotest.test_case "choice_weighted zero total" `Quick test_choice_weighted_zero_total;
          Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_is_permutation;
          Alcotest.test_case "sample without replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "split streams differ" `Quick test_split_streams_differ;
        ] );
      ( "dist",
        [
          Alcotest.test_case "sample means" `Quick test_dist_sample_means;
          Alcotest.test_case "truncated bounds" `Quick test_dist_truncated_bounds;
          Alcotest.test_case "analytic means" `Quick test_dist_mean_analytic;
        ] );
      ("properties", qcheck_tests);
    ]
