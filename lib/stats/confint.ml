type level = C90 | C95 | C99

let z_of_level = function C90 -> 1.645 | C95 -> 1.960 | C99 -> 2.576

let halfwidth summary level =
  if Summary.count summary = 0 then invalid_arg "Confint: empty summary";
  if Summary.count summary < 2 then 0.
  else z_of_level level *. Summary.stddev summary /. Float.sqrt (float_of_int (Summary.count summary))

let of_summary summary level =
  let h = halfwidth summary level in
  let m = Summary.mean summary in
  (m -. h, m +. h)
