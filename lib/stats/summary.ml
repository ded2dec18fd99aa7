type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;  (* sum of squared deviations from the running mean *)
}

let create () = { n = 0; mean = 0.; m2 = 0. }

let add t x =
  if not (Float.is_finite x) then invalid_arg "Summary.add: non-finite observation";
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let count t = t.n
let mean t = if t.n = 0 then Float.nan else t.mean
let variance t = if t.n < 2 then Float.nan else t.m2 /. float_of_int (t.n - 1)
let stddev t = Float.sqrt (variance t)

let of_array arr =
  let t = create () in
  Array.iter (add t) arr;
  t
