type derivative = t:float -> y:float array -> float array

let check_dim expected actual =
  if Array.length actual <> expected then
    invalid_arg "Ode: derivative returned a state of the wrong dimension"

let step ~f ~t ~h y =
  let dim = Array.length y in
  let scale_add v k factor =
    Array.init dim (fun i -> v.(i) +. (factor *. k.(i)))
  in
  let k1 = f ~t ~y in
  check_dim dim k1;
  let k2 = f ~t:(t +. (h /. 2.)) ~y:(scale_add y k1 (h /. 2.)) in
  let k3 = f ~t:(t +. (h /. 2.)) ~y:(scale_add y k2 (h /. 2.)) in
  let k4 = f ~t:(t +. h) ~y:(scale_add y k3 h) in
  Array.init dim (fun i ->
      y.(i) +. (h /. 6. *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i))))

let validate ~t0 ~t1 ~steps =
  if steps <= 0 then invalid_arg "Ode: steps must be positive";
  if t1 < t0 then invalid_arg "Ode: t1 must be >= t0"

let rk4 ~f ~y0 ~t0 ~t1 ~steps =
  validate ~t0 ~t1 ~steps;
  let h = (t1 -. t0) /. float_of_int steps in
  let y = ref (Array.copy y0) in
  for i = 0 to steps - 1 do
    Psn_robust.Interrupt.check ();
    let t = t0 +. (float_of_int i *. h) in
    y := step ~f ~t ~h !y
  done;
  !y
