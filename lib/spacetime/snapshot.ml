module Trace = Psn_trace.Trace
module Contact = Psn_trace.Contact

type t = {
  grid : Timegrid.t;
  n_nodes : int;
  adj : int list array array;  (* adj.(step - 1).(node) = sorted distinct neighbours *)
}

let of_trace ?delta trace =
  let grid = Timegrid.create ?delta ~horizon:(Trace.horizon trace) () in
  let n = Trace.n_nodes trace in
  let steps = Timegrid.n_steps grid in
  let adj = Array.init steps (fun _ -> Array.make n []) in
  Trace.iter_contacts trace (fun (c : Contact.t) ->
      let first, last = Timegrid.steps_overlapping grid ~t_start:c.Contact.t_start ~t_end:c.Contact.t_end in
      for step = first to last do
        let row = adj.(step - 1) in
        row.(c.Contact.a) <- c.Contact.b :: row.(c.Contact.a);
        row.(c.Contact.b) <- c.Contact.a :: row.(c.Contact.b)
      done);
  (* Merge duplicates (same pair touching one step via several contact
     records) and fix a deterministic order. *)
  Array.iter
    (fun row ->
      Array.iteri (fun i ns -> row.(i) <- List.sort_uniq Int.compare ns) row)
    adj;
  { grid; n_nodes = n; adj }

let grid t = t.grid
let n_nodes t = t.n_nodes
let n_steps t = Timegrid.n_steps t.grid

let check t ~step node =
  if step < 1 || step > n_steps t then invalid_arg "Snapshot: step out of range";
  if node < 0 || node >= t.n_nodes then invalid_arg "Snapshot: node out of range"

let neighbours t ~step node =
  check t ~step node;
  t.adj.(step - 1).(node)

(* Reference lookup: the Path validity predicates and the adjacency
   property tests are stated with it. *)
let[@lint.allow "dead-export"] in_contact t ~step a b =
  check t ~step a;
  check t ~step b;
  List.mem b t.adj.(step - 1).(a)

let edges t ~step =
  check t ~step 0;
  let row = t.adj.(step - 1) in
  let acc = ref [] in
  for a = t.n_nodes - 1 downto 0 do
    List.iter (fun b -> if a < b then acc := (a, b) :: !acc) row.(a)
  done;
  !acc

let active_steps t =
  let acc = ref [] in
  for step = n_steps t downto 1 do
    if Array.exists (fun ns -> not (List.is_empty ns)) t.adj.(step - 1) then acc := step :: !acc
  done;
  !acc

let component_of t ~step node =
  check t ~step node;
  let row = t.adj.(step - 1) in
  let seen = Array.make t.n_nodes false in
  seen.(node) <- true;
  let rec bfs frontier acc =
    match frontier with
    | [] -> acc
    | x :: rest ->
      let fresh = List.filter (fun y -> not seen.(y)) row.(x) in
      List.iter (fun y -> seen.(y) <- true) fresh;
      bfs (fresh @ rest) (fresh @ acc)
  in
  List.sort Int.compare (bfs [ node ] [ node ])

let components t ~step =
  check t ~step 0;
  let row = t.adj.(step - 1) in
  let seen = Array.make t.n_nodes false in
  let out = ref [] in
  for node = 0 to t.n_nodes - 1 do
    if (not seen.(node)) && not (List.is_empty row.(node)) then begin
      let comp = component_of t ~step node in
      List.iter (fun x -> seen.(x) <- true) comp;
      out := comp :: !out
    end
  done;
  List.rev !out
