type t = { delta : float; horizon : float; n_steps : int }

let create ?(delta = 10.) ~horizon () =
  if not (delta > 0.) then invalid_arg "Timegrid.create: delta must be positive";
  if not (horizon > 0.) then invalid_arg "Timegrid.create: horizon must be positive";
  { delta; horizon; n_steps = int_of_float (Float.ceil (horizon /. delta)) }

let delta t = t.delta
let n_steps t = t.n_steps

let step_of_time t time =
  if time < 0. || time >= t.horizon then invalid_arg "Timegrid.step_of_time: outside horizon";
  (* time in [cΔ - Δ, cΔ)  <=>  c = floor(time/Δ) + 1 *)
  Int.min t.n_steps (int_of_float (Float.floor (time /. t.delta)) + 1)

let check_step t c =
  if c < 1 || c > t.n_steps then invalid_arg "Timegrid: step out of range"

let time_of_step t c =
  check_step t c;
  float_of_int c *. t.delta

(* Test-only: to be deleted with its unit tests (ROADMAP, "The test-only
   code left in lib/"). *)
let[@lint.allow "dead-export"] interval_of_step t c =
  check_step t c;
  (float_of_int (c - 1) *. t.delta, float_of_int c *. t.delta)

let steps_overlapping t ~t_start ~t_end =
  if not (t_start < t_end) then invalid_arg "Timegrid.steps_overlapping: empty interval";
  (* Step c intersects [t_start, t_end) iff cΔ > t_start and cΔ - Δ < t_end. *)
  let first = int_of_float (Float.floor (t_start /. t.delta)) + 1 in
  let last = int_of_float (Float.ceil (t_end /. t.delta)) in
  (Int.max 1 first, Int.min t.n_steps last)
