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

(* Test-only: to be deleted with its unit tests (ROADMAP, "The test-only
   code left in lib/"). *)
let[@lint.allow "dead-export"] merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let n = a.n + b.n in
    let fa = float_of_int a.n and fb = float_of_int b.n in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. fb /. float_of_int n) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. float_of_int n) in
    { n; mean; m2 }
  end
