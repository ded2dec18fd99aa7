module Trace = Psn_trace.Trace
module Contact = Psn_trace.Contact

(* Meeting instants per pair, from contact start times. *)
let meeting_times trace =
  let n = Trace.n_nodes trace in
  let times = Array.make (n * n) [] in
  Trace.iter_contacts trace (fun (c : Contact.t) ->
      let i = (c.Contact.a * n) + c.Contact.b in
      times.(i) <- c.Contact.t_start :: times.(i));
  times

let expected_from_gaps window times_rev =
  (* times_rev is newest-first; traverse once accumulating squared gaps
     including the lead-in and tail segments. *)
  match times_rev with
  | [] -> Float.infinity
  | newest :: _ ->
    let tail = window -. newest in
    let rec go acc = function
      | [ oldest ] -> acc +. (oldest *. oldest)
      | t :: (t' :: _ as rest) ->
        let g = t -. t' in
        go (acc +. (g *. g)) rest
      | [] -> acc
    in
    let sum_sq = go (tail *. tail) times_rev in
    sum_sq /. (2. *. window)

let delay_matrix trace =
  let n = Trace.n_nodes trace in
  let window = Trace.horizon trace in
  let times = meeting_times trace in
  Array.init n (fun a ->
      Array.init n (fun b ->
          if a = b then 0.
          else
            let lo, hi = if a < b then (a, b) else (b, a) in
            expected_from_gaps window times.((lo * n) + hi)))

let routing_costs trace =
  let costs = delay_matrix trace in
  let n = Array.length costs in
  (* Floyd-Warshall; infinities propagate naturally. *)
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if Float.is_finite costs.(i).(k) then
        for j = 0 to n - 1 do
          let via = costs.(i).(k) +. costs.(k).(j) in
          if via < costs.(i).(j) then costs.(i).(j) <- via
        done
    done
  done;
  costs
