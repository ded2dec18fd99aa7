let factory ?(p = 0.5) () =
  if not (p >= 0. && p <= 1.) then invalid_arg "Randomized.factory: p must be in [0, 1]";
  fun _trace ->
    let rng = Psn_prng.Rng.create ~seed:7L () in
    Psn_sim.Algorithm.stateless
      ~name:(Printf.sprintf "Random(p=%g)" p)
      (fun _ -> Psn_prng.Rng.bernoulli rng p)
