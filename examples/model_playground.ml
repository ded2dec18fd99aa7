(* Model playground: the analytic machinery of Section 5, end to end —
   the ODE, its closed forms, the Monte-Carlo check, the epidemic
   S-curve, and the two-class quadrant predictions.

   Run with: dune exec examples/model_playground.exe *)

module H = Core.Homogeneous
module MC = Core.Montecarlo
module I = Core.Inhomogeneous

let () =
  let p = { H.n = 150; lambda = 0.4 } in
  Format.printf "Homogeneous model: N = %d nodes, lambda = %.2f contacts/s per node@.@."
    p.H.n p.H.lambda;

  (* Mean path count per node: eq. (4) says e^{lambda t} growth. *)
  Format.printf "%6s %14s %14s %14s %12s@." "t" "E[S] closed" "E[S] ODE" "E[S] MC"
    "frac reached";
  let rng = Core.Rng.create ~seed:33L () in
  let times = [ 0.; 3.; 6.; 9.; 12. ] in
  let mc = MC.average_runs p ~rng ~runs:40 ~sample_times:times in
  List.iter2
    (fun t sample ->
      let density = H.density_at p ~k_max:500 ~t in
      Format.printf "%6.1f %14.5f %14.5f %14.5f %12.4f@." t (H.mean_paths p ~t)
        (H.mean_of_density density) sample.MC.mean (H.frac_reached p ~t))
    times mc;

  (* The first-path time scale and the generating-function blow-up. *)
  Format.printf "@.first-path time H = ln N / lambda = %.2f s@." (H.first_path_time p);
  List.iter
    (fun x ->
      match H.blowup_time p ~x with
      | Some tc -> Format.printf "phi_x loses its light tail at T_C(%.1f) = %.2f s@." x tc
      | None -> Format.printf "phi_x stays finite for x = %.1f@." x)
    [ 0.5; 1.5; 3.0 ];

  (* Variance: note the paper's printed formula has a typo (see
     Core.Homogeneous.variance); the self-consistent form satisfies
     V = E[S^2] - E[S]^2 exactly. *)
  let t = 9. in
  Format.printf "@.at t = %.0f: V[S] = %.5f, E[S^2] - E[S]^2 = %.5f (equal by construction)@." t
    (H.variance p ~t)
    (H.second_moment p ~t -. (H.mean_paths p ~t ** 2.));

  (* The two-class story of section 5.2. *)
  Format.printf "@.Two-class model (half 'in' at 0.03/s, half 'out' at 0.005/s):@.";
  let classes = { I.n = 98; frac_high = 0.5; rate_high = 0.03; rate_low = 0.005 } in
  let stats =
    I.simulate classes
      ~rng:(Core.Rng.create ~seed:34L ())
      ~messages_per_quadrant:40 ~n_explosion:2000 ~t_end:10800.
  in
  List.iter
    (fun (s : I.quadrant_stats) ->
      let p = I.predict s.I.quadrant in
      let name = Format.asprintf "%a" I.pp_quadrant s.I.quadrant in
      Format.printf "  %-8s T1 = %4.0f +- %3.0f s, TE = %4.0f +- %3.0f s   (predicted T1 %s, TE %s)@."
        name s.I.mean_t1 s.I.sd_t1 s.I.mean_te s.I.sd_te
        (if p.I.t1_small then "small" else "large")
        (if p.I.te_small then "small" else "variable"))
    stats
