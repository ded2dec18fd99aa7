(* Tests for the psn_model library: RK4 integration, the homogeneous
   population model's closed forms vs its ODE, Monte-Carlo agreement,
   and the two-class inhomogeneous model. *)

module Ode = Core.Ode
module H = Core.Homogeneous
module MC = Core.Montecarlo
module I = Core.Inhomogeneous
module Rng = Core.Rng

let feps = Alcotest.float 1e-9

(* --- Ode --- *)

let test_rk4_exponential () =
  (* dy/dt = y, y(0) = 1 -> y(1) = e *)
  let y = Ode.rk4 ~f:(fun ~t:_ ~y -> [| y.(0) |]) ~y0:[| 1. |] ~t0:0. ~t1:1. ~steps:100 in
  Alcotest.(check (float 1e-7)) "e" (Float.exp 1.) y.(0)

let test_rk4_linear_system () =
  (* dy0/dt = y1, dy1/dt = -y0: rotation; at t = pi/2, y = (0, -1)
     starting from (1, 0). *)
  let f ~t:_ ~y = [| y.(1); -.y.(0) |] in
  let y = Ode.rk4 ~f ~y0:[| 1.; 0. |] ~t0:0. ~t1:(Float.pi /. 2.) ~steps:200 in
  Alcotest.(check (float 1e-6)) "cos" 0. y.(0);
  Alcotest.(check (float 1e-6)) "sin" (-1.) y.(1)

let test_rk4_time_dependent () =
  (* dy/dt = 2t -> y(2) = 4 from y(0) = 0 *)
  let y = Ode.rk4 ~f:(fun ~t ~y:_ -> [| 2. *. t |]) ~y0:[| 0. |] ~t0:0. ~t1:2. ~steps:50 in
  Alcotest.(check (float 1e-9)) "t^2" 4. y.(0)

let test_rk4_trajectory () =
  let points = Ode.trajectory ~f:(fun ~t:_ ~y -> [| y.(0) |]) ~y0:[| 1. |] ~t0:0. ~t1:1. ~steps:10 in
  Alcotest.(check int) "points" 11 (List.length points);
  let t0, y0 = List.hd points in
  Alcotest.check feps "starts at t0" 0. t0;
  Alcotest.check feps "starts at y0" 1. y0.(0)

let test_rk4_errors () =
  Alcotest.check_raises "zero steps" (Invalid_argument "Ode: steps must be positive") (fun () ->
      ignore (Ode.rk4 ~f:(fun ~t:_ ~y -> y) ~y0:[| 1. |] ~t0:0. ~t1:1. ~steps:0));
  Alcotest.check_raises "bad dimension"
    (Invalid_argument "Ode: derivative returned a state of the wrong dimension") (fun () ->
      ignore (Ode.rk4 ~f:(fun ~t:_ ~y:_ -> [||]) ~y0:[| 1. |] ~t0:0. ~t1:1. ~steps:1))

(* --- Homogeneous closed forms --- *)

let params = { H.n = 200; lambda = 0.5 }

let test_initial_density () =
  let u = H.initial_density params ~k_max:10 in
  Alcotest.check feps "u0" (1. -. (1. /. 200.)) u.(0);
  Alcotest.check feps "u1" (1. /. 200.) u.(1);
  Alcotest.check feps "mass" 1. (Array.fold_left ( +. ) 0. u);
  Alcotest.check feps "mean" (1. /. 200.) (H.mean_of_density u)

let test_mean_growth_is_exponential () =
  (* eq. (4): E[S(t)] = E[S(0)] e^{lambda t} *)
  Alcotest.check feps "t=0" (1. /. 200.) (H.mean_paths params ~t:0.);
  let ratio = H.mean_paths params ~t:3. /. H.mean_paths params ~t:1. in
  Alcotest.(check (float 1e-9)) "doubling rule" (Float.exp (0.5 *. 2.)) ratio

let test_ode_matches_closed_mean () =
  List.iter
    (fun t ->
      let u = H.density_at params ~k_max:400 ~t () in
      let ode_mean = H.mean_of_density u in
      let closed = H.mean_paths params ~t in
      Alcotest.(check (float 1e-4))
        (Printf.sprintf "mean at t=%.1f" t)
        closed ode_mean;
      Alcotest.(check (float 1e-6))
        "mass conserved below truncation" 1. (Array.fold_left ( +. ) 0. u))
    [ 0.; 1.; 4.; 8. ]

let test_generating_function_properties () =
  (* phi_1 = 1 for all t (total mass); phi_0(t) = u_0(t) decreases. *)
  Alcotest.check feps "phi at x=1" 1. (H.generating_function params ~x:1. ~t:5.);
  let u0_early = H.generating_function params ~x:0. ~t:1. in
  let u0_late = H.generating_function params ~x:0. ~t:10. in
  Alcotest.(check bool) "u0 decreases" true (u0_late < u0_early);
  Alcotest.(check bool) "u0 in (0,1)" true (u0_late > 0. && u0_early < 1.)

let test_generating_function_vs_ode () =
  (* phi_x(t) from the closed form should match sum x^k u_k(t) from the
     ODE for x < 1. *)
  let t = 6. in
  let u = H.density_at params ~k_max:400 ~t () in
  let x = 0.7 in
  let direct = Array.to_list u |> List.mapi (fun k uk -> (x ** float_of_int k) *. uk) in
  let sum = List.fold_left ( +. ) 0. direct in
  Alcotest.(check (float 1e-6)) "phi vs ODE" (H.generating_function params ~x ~t) sum

let test_blowup () =
  (match H.blowup_time params ~x:0.9 with
  | None -> ()
  | Some _ -> Alcotest.fail "no blow-up expected for x <= 1");
  match H.blowup_time params ~x:2. with
  | None -> Alcotest.fail "blow-up expected for x > 1"
  | Some tc ->
    Alcotest.(check bool) "positive" true (tc > 0.);
    (* just before the blow-up the generating function is enormous;
       at/after it, infinite *)
    Alcotest.(check bool) "diverges at tc" true
      (Float.is_finite (H.generating_function params ~x:2. ~t:(tc *. 0.99)))

let test_blowup_formula () =
  (* T_C(x) = (1/lambda) ln (phi_0 / (phi_0 - 1)) with
     phi_0 = 1 - 1/N + x/N. *)
  let x = 3. in
  let phi0 = 1. -. (1. /. 200.) +. (x /. 200.) in
  let expected = 1. /. 0.5 *. Float.log (phi0 /. (phi0 -. 1.)) in
  Alcotest.(check (float 1e-9)) "closed formula" expected (Option.get (H.blowup_time params ~x))

let test_variance_consistency () =
  (* V[S] = E[S^2] - E[S]^2 must hold between the two closed forms. *)
  List.iter
    (fun t ->
      let v = H.variance params ~t in
      let m = H.mean_paths params ~t in
      let m2 = H.second_moment params ~t in
      Alcotest.(check (float 1e-9)) (Printf.sprintf "t=%.1f" t) v (m2 -. (m *. m)))
    [ 0.; 2.; 5.; 9. ]

let test_frac_reached_closed_form () =
  (* 1 - phi_0(t): starts at 1/N, monotone, saturates to 1. *)
  Alcotest.(check (float 1e-9)) "at t=0" (1. /. 200.) (H.frac_reached params ~t:0.);
  let early = H.frac_reached params ~t:5. and late = H.frac_reached params ~t:30. in
  Alcotest.(check bool) "monotone" true (early < late);
  Alcotest.(check bool) "saturates" true (late > 0.99);
  (* cross-check against the ODE's u_0 *)
  let u = H.density_at params ~k_max:400 ~t:6. () in
  Alcotest.(check (float 1e-6)) "matches ODE u0" (1. -. u.(0)) (H.frac_reached params ~t:6.)

let test_first_path_time () =
  Alcotest.(check (float 1e-9)) "ln N / lambda" (Float.log 200. /. 0.5) (H.first_path_time params);
  (* At t = H the mean path count per node is exactly 1. *)
  Alcotest.(check (float 1e-9)) "mean 1 at H" 1.
    (H.mean_paths params ~t:(H.first_path_time params))

let test_homogeneous_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Homogeneous: n must be >= 2") (fun () ->
      H.check { H.n = 1; lambda = 1. });
  Alcotest.check_raises "bad lambda" (Invalid_argument "Homogeneous: lambda must be positive")
    (fun () -> H.check { H.n = 5; lambda = 0. })

(* --- Monte-Carlo --- *)

let test_mc_deterministic () =
  let run seed =
    MC.run params ~rng:(Rng.create ~seed ()) ~sample_times:[ 2.; 4. ]
    |> List.map (fun s -> s.MC.mean)
  in
  Alcotest.(check (list (float 1e-12))) "same seed same run" (run 7L) (run 7L)

let test_mc_matches_closed_mean () =
  let rng = Rng.create ~seed:21L () in
  let samples = MC.average_runs params ~rng ~runs:80 ~sample_times:[ 2.; 5. ] in
  List.iter
    (fun s ->
      let closed = H.mean_paths params ~t:s.MC.time in
      let rel = Float.abs (s.MC.mean -. closed) /. closed in
      Alcotest.(check bool)
        (Printf.sprintf "t=%.0f mean rel err %.2f < 0.25" s.MC.time rel)
        true (rel < 0.25))
    samples

let test_mc_frac_reached_grows () =
  let rng = Rng.create ~seed:22L () in
  let samples = MC.run params ~rng ~sample_times:[ 1.; 5.; 10. ] in
  let fracs = List.map (fun s -> s.MC.frac_reached) samples in
  let rec monotone = function a :: (b :: _ as r) -> a <= b && monotone r | _ -> true in
  Alcotest.(check bool) "monotone" true (monotone fracs);
  Alcotest.(check bool) "source counted" true (List.hd fracs >= 1. /. 200.)

(* --- Inhomogeneous --- *)

let classes = { I.n = 80; frac_high = 0.5; rate_high = 0.5; rate_low = 0.05 }

let test_predictions_table () =
  let p = I.predict I.In_in in
  Alcotest.(check bool) "in-in both small" true (p.I.t1_small && p.I.te_small);
  let p = I.predict I.In_out in
  Alcotest.(check bool) "in-out te large" true (p.I.t1_small && not p.I.te_small);
  let p = I.predict I.Out_in in
  Alcotest.(check bool) "out-in t1 large" true ((not p.I.t1_small) && p.I.te_small);
  let p = I.predict I.Out_out in
  Alcotest.(check bool) "out-out both large" true ((not p.I.t1_small) && not p.I.te_small)

let test_first_path_scale () =
  let high = I.first_path_scale classes I.In_in in
  let low = I.first_path_scale classes I.Out_in in
  Alcotest.(check bool) "out source slower" true (low > high);
  Alcotest.(check (float 1e-9)) "escape term" (1. /. 0.05) (low -. high)

let test_inhomogeneous_validation () =
  Alcotest.check_raises "rates inverted"
    (Invalid_argument "Inhomogeneous: need 0 < rate_low <= rate_high") (fun () ->
      I.check { classes with I.rate_low = 1.0 })

let test_quadrant_simulation_t1_ordering () =
  let rng = Rng.create ~seed:31L () in
  let stats = I.simulate classes ~rng ~messages_per_quadrant:40 ~n_explosion:50 ~t_end:500. in
  let find q =
    List.find (fun s -> s.I.quadrant = q) stats
  in
  let t1 q = (find q).I.mean_t1 in
  Alcotest.(check bool)
    (Printf.sprintf "in-in %.1f < out-out %.1f" (t1 I.In_in) (t1 I.Out_out))
    true
    (t1 I.In_in < t1 I.Out_out);
  Alcotest.(check bool) "everything delivered" true
    (List.for_all (fun s -> s.I.deliveries = s.I.messages) stats)

let test_quadrant_te_variability () =
  (* The paper's Fig. 8 signature: TE is much more variable when the
     destination is a low-rate node. Use trace-like rates. *)
  let c = { I.n = 98; frac_high = 0.5; rate_high = 0.03; rate_low = 0.005 } in
  let rng = Rng.create ~seed:32L () in
  let stats = I.simulate c ~rng ~messages_per_quadrant:60 ~n_explosion:2000 ~t_end:10800. in
  let sd q = (List.find (fun s -> s.I.quadrant = q) stats).I.sd_te in
  Alcotest.(check bool)
    (Printf.sprintf "sd(in-out)=%.0f > sd(in-in)=%.0f" (sd I.In_out) (sd I.In_in))
    true
    (sd I.In_out > sd I.In_in)

let () =
  Alcotest.run "psn_model"
    [
      ( "ode",
        [
          Alcotest.test_case "exponential" `Quick test_rk4_exponential;
          Alcotest.test_case "rotation system" `Quick test_rk4_linear_system;
          Alcotest.test_case "time dependent" `Quick test_rk4_time_dependent;
          Alcotest.test_case "trajectory" `Quick test_rk4_trajectory;
          Alcotest.test_case "errors" `Quick test_rk4_errors;
        ] );
      ( "homogeneous",
        [
          Alcotest.test_case "initial density" `Quick test_initial_density;
          Alcotest.test_case "mean growth eq (4)" `Quick test_mean_growth_is_exponential;
          Alcotest.test_case "ODE matches closed mean" `Slow test_ode_matches_closed_mean;
          Alcotest.test_case "generating function" `Quick test_generating_function_properties;
          Alcotest.test_case "phi vs ODE densities" `Slow test_generating_function_vs_ode;
          Alcotest.test_case "blow-up existence" `Quick test_blowup;
          Alcotest.test_case "blow-up formula" `Quick test_blowup_formula;
          Alcotest.test_case "variance consistency" `Quick test_variance_consistency;
          Alcotest.test_case "frac reached closed form" `Slow test_frac_reached_closed_form;
          Alcotest.test_case "first path time H" `Quick test_first_path_time;
          Alcotest.test_case "validation" `Quick test_homogeneous_validation;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "deterministic by seed" `Quick test_mc_deterministic;
          Alcotest.test_case "matches closed mean" `Slow test_mc_matches_closed_mean;
          Alcotest.test_case "frac reached grows" `Quick test_mc_frac_reached_grows;
        ] );
      ( "inhomogeneous",
        [
          Alcotest.test_case "prediction table" `Quick test_predictions_table;
          Alcotest.test_case "first path scale" `Quick test_first_path_scale;
          Alcotest.test_case "validation" `Quick test_inhomogeneous_validation;
          Alcotest.test_case "quadrant T1 ordering" `Slow test_quadrant_simulation_t1_ordering;
          Alcotest.test_case "quadrant TE variability" `Slow test_quadrant_te_variability;
        ] );
    ]
