type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { rate : float }
  | Pareto of { alpha : float; x_min : float }
  | Gaussian of { mu : float; sigma : float }
  | Truncated of { dist : t; lo : float; hi : float }

let rec sample rng = function
  | Constant v -> v
  | Uniform { lo; hi } -> Rng.uniform_in rng ~lo ~hi
  | Exponential { rate } -> Rng.exponential rng ~rate
  | Pareto { alpha; x_min } -> Rng.pareto rng ~alpha ~x_min
  | Gaussian { mu; sigma } -> Rng.gaussian rng ~mu ~sigma
  | Truncated { dist; lo; hi } ->
    let rec attempt n =
      let v = sample rng dist in
      if v >= lo && v <= hi then v
      else if n = 0 then Float.max lo (Float.min hi v)
      else attempt (n - 1)
    in
    attempt 64

let rec mean = function
  | Constant v -> v
  | Uniform { lo; hi } -> (lo +. hi) /. 2.
  | Exponential { rate } -> 1. /. rate
  | Pareto { alpha; x_min } ->
    if alpha <= 1. then Float.infinity else alpha *. x_min /. (alpha -. 1.)
  | Gaussian { mu; _ } -> mu
  | Truncated { dist; lo; hi } -> Float.max lo (Float.min hi (mean dist))
