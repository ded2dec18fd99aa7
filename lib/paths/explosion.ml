type summary = {
  n_arrivals : int;
  delivered : bool;
  t1 : float option;
  optimal_duration : float option;
  tn : float option;
  te : float option;
}

let analyze ~n_explosion (result : Enumerate.result) =
  if n_explosion <= 0 then invalid_arg "Explosion.analyze: n_explosion must be positive";
  let arrivals = result.Enumerate.arrivals in
  let n = Array.length arrivals in
  if n = 0 then
    { n_arrivals = 0; delivered = false; t1 = None; optimal_duration = None; tn = None; te = None }
  else begin
    let first = arrivals.(0) in
    let t1 = first.Enumerate.time in
    let tn =
      if n >= n_explosion then Some arrivals.(n_explosion - 1).Enumerate.time else None
    in
    {
      n_arrivals = n;
      delivered = true;
      t1 = Some t1;
      optimal_duration = Some first.Enumerate.duration;
      tn;
      te = Option.map (fun t -> t -. t1) tn;
    }
  end

type survival = {
  baseline_paths : int;
  surviving_paths : int;
  survival_ratio : float;
  still_delivered : bool;
  delay_penalty : float option;
}

let survival ~baseline ~degraded =
  let b = Array.length baseline.Enumerate.arrivals in
  let s = Array.length degraded.Enumerate.arrivals in
  let first (r : Enumerate.result) =
    if Array.length r.Enumerate.arrivals = 0 then None
    else Some r.Enumerate.arrivals.(0).Enumerate.time
  in
  {
    baseline_paths = b;
    surviving_paths = s;
    survival_ratio = (if b = 0 then 1. else float_of_int s /. float_of_int b);
    still_delivered = s > 0;
    delay_penalty =
      (match (first baseline, first degraded) with
      | Some t_b, Some t_d -> Some (t_d -. t_b)
      | _, _ -> None);
  }
