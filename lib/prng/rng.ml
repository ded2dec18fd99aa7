type t = { gen : Xoshiro.t }

let of_xoshiro gen = { gen }
let create ?(seed = 42L) () = of_xoshiro (Xoshiro.of_seed seed)
let bits64 t = Xoshiro.next t.gen

(* Top 53 bits give a uniform float in [0, 1). *)
let unit_float t =
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let float t bound =
  if not (Float.is_finite bound && bound > 0.) then
    invalid_arg "Rng.float: bound must be finite and positive";
  unit_float t *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling over the smallest covering power of two. *)
  let mask =
    let rec widen m = if m >= bound - 1 then m else widen ((m lsl 1) lor 1) in
    widen 1
  in
  let rec draw () =
    let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) land mask in
    if v < bound then v else draw ()
  in
  draw ()

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let bernoulli t p =
  let p = Float.max 0. (Float.min 1. p) in
  unit_float t < p

let exponential t ~rate =
  if not (rate > 0.) then invalid_arg "Rng.exponential: rate must be positive";
  (* 1 - u avoids log 0. *)
  -.Float.log (1. -. unit_float t) /. rate

let gaussian t ~mu ~sigma =
  let u1 = 1. -. unit_float t in
  let u2 = unit_float t in
  mu +. (sigma *. Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2))

let pareto t ~alpha ~x_min =
  if not (alpha > 0. && x_min > 0.) then
    invalid_arg "Rng.pareto: alpha and x_min must be positive";
  x_min /. Float.pow (1. -. unit_float t) (1. /. alpha)

let uniform_in t ~lo ~hi =
  if not (lo < hi) then invalid_arg "Rng.uniform_in: lo must be < hi";
  lo +. (unit_float t *. (hi -. lo))

let choice_weighted t ~weights =
  let total = Array.fold_left ( +. ) 0. weights in
  if not (total > 0.) then invalid_arg "Rng.choice_weighted: weights must sum to > 0";
  let target = float t total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.
