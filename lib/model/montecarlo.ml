open Psn_prng

type sample = {
  time : float;
  mean : float;
  second_moment : float;
  variance : float;
  frac_reached : float;
}

let population_sample states time =
  let summary = Psn_stats.Summary.of_array states in
  let n = float_of_int (Array.length states) in
  let reached = Array.fold_left (fun acc s -> if s > 0. then acc + 1 else acc) 0 states in
  let sq = Array.fold_left (fun acc s -> acc +. (s *. s)) 0. states in
  {
    time;
    mean = Psn_stats.Summary.mean summary;
    second_moment = sq /. n;
    variance = Psn_stats.Summary.variance summary;
    frac_reached = float_of_int reached /. n;
  }

let run p ~rng ~sample_times =
  Homogeneous.check p;
  let sample_times = List.sort Float.compare sample_times in
  let n = p.Homogeneous.n in
  let states = Array.make n 0. in
  states.(0) <- 1.;
  let rec go time pending acc =
    match pending with
    | [] -> List.rev acc
    | _ ->
      let t' = time +. Rng.exponential rng ~rate:(float_of_int n *. p.Homogeneous.lambda) in
      (* Sample instants in (time, t'] see the pre-event state: the next
         event only happens at t'. *)
      let rec flush pending acc =
        match pending with
        | next :: rest when next <= t' -> flush rest (population_sample states next :: acc)
        | _ -> (pending, acc)
      in
      let pending, acc = flush pending acc in
      let source = Rng.int rng n in
      let peer =
        let r = Rng.int rng (n - 1) in
        if r >= source then r + 1 else r
      in
      states.(peer) <- states.(peer) +. states.(source);
      go t' pending acc
  in
  go 0. sample_times []

let average_runs p ~rng ~runs ~sample_times =
  if runs <= 0 then invalid_arg "Montecarlo.average_runs: runs must be positive";
  let accumulate totals samples =
    List.map2
      (fun (t, m, q, v, f) s ->
        (t, m +. s.mean, q +. s.second_moment, v +. s.variance, f +. s.frac_reached))
      totals samples
  in
  let zero = List.map (fun t -> (t, 0., 0., 0., 0.)) (List.sort Float.compare sample_times) in
  let totals = ref zero in
  for _ = 1 to runs do
    Psn_robust.Interrupt.check ();
    totals := accumulate !totals (run p ~rng ~sample_times)
  done;
  let k = float_of_int runs in
  List.map
    (fun (time, m, q, v, f) ->
      { time; mean = m /. k; second_moment = q /. k; variance = v /. k; frac_reached = f /. k })
    !totals
