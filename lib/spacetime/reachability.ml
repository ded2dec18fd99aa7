type arrivals = {
  grid : Timegrid.t;
  t_create : float;
  arrival : int array;  (* step of first arrival per node; -1 = unreached *)
}

let flood snap ~src ~t_create =
  let grid = Snapshot.grid snap in
  let n = Snapshot.n_nodes snap in
  if src < 0 || src >= n then invalid_arg "Reachability.flood: src out of range";
  let create_step = Timegrid.step_of_time grid t_create in
  let arrival = Array.make n (-1) in
  arrival.(src) <- create_step;
  (* The holders, in arrival order, are the prefix [0, n_reached) of
     [queue]: each step closes them under its contacts, so any
     component containing a holder becomes all-holders, and the nodes
     appended are that step's arrivals. *)
  let held = Array.make n false in
  let queue = Array.make n src in
  held.(src) <- true;
  let n_reached = ref 1 in
  let steps = Timegrid.n_steps grid in
  let step = ref (create_step + 1) in
  while !step <= steps && !n_reached < n do
    let reached = Snapshot.spread snap ~step:!step ~seen:held queue ~from:0 ~until:!n_reached in
    for i = !n_reached to reached - 1 do
      arrival.(queue.(i)) <- !step
    done;
    n_reached := reached;
    incr step
  done;
  { grid; t_create; arrival }

let arrival_step t node =
  if node < 0 || node >= Array.length t.arrival then
    invalid_arg "Reachability.arrival_step: node out of range";
  if t.arrival.(node) < 0 then None else Some t.arrival.(node)

let arrival_time t node =
  Option.map (fun step -> Timegrid.time_of_step t.grid step) (arrival_step t node)

let delivery_delay t ~dst = Option.map (fun time -> time -. t.t_create) (arrival_time t dst)

(* A summary of the flooding oracle, the reference the spacetime tests
   check reachability against. *)
let[@lint.allow "dead-export"] reached t =
  Array.fold_left (fun acc a -> if a >= 0 then acc + 1 else acc) 0 t.arrival
