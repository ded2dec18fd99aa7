type node_class = In | Out

type pair_type = In_in | In_out | Out_in | Out_out

type t = { rates : float array; median : float }

let of_trace trace =
  let rates = Psn_trace.Trace.contact_rates trace in
  { rates; median = Psn_stats.Quantile.median rates }

let check t node =
  if node < 0 || node >= Array.length t.rates then invalid_arg "Classify: node out of range"

let rate t node =
  check t node;
  t.rates.(node)

let median_rate t = t.median

let node_class t node =
  check t node;
  if t.rates.(node) > t.median then In else Out

let pair_type t ~src ~dst =
  match (node_class t src, node_class t dst) with
  | In, In -> In_in
  | In, Out -> In_out
  | Out, In -> Out_in
  | Out, Out -> Out_out

let n_in t = Array.fold_left (fun acc r -> if r > t.median then acc + 1 else acc) 0 t.rates

let equal_pair_type a b =
  match (a, b) with
  | In_in, In_in | In_out, In_out | Out_in, Out_in | Out_out, Out_out -> true
  | (In_in | In_out | Out_in | Out_out), _ -> false

let pair_type_index = function In_in -> 0 | In_out -> 1 | Out_in -> 2 | Out_out -> 3
let compare_pair_type a b = Int.compare (pair_type_index a) (pair_type_index b)
let all_pair_types = [ In_in; In_out; Out_in; Out_out ]

let pair_type_name = function
  | In_in -> "in-in"
  | In_out -> "in-out"
  | Out_in -> "out-in"
  | Out_out -> "out-out"
