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
  let n_reached = ref 1 in
  let steps = Timegrid.n_steps grid in
  let step = ref (create_step + 1) in
  while !step <= steps && !n_reached < n do
    (* Any component containing a holder becomes all-holders this step. *)
    List.iter
      (fun comp ->
        if List.exists (fun x -> arrival.(x) >= 0) comp then
          List.iter
            (fun x ->
              if arrival.(x) < 0 then begin
                arrival.(x) <- !step;
                incr n_reached
              end)
            comp)
      (Snapshot.components snap ~step:!step);
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

(* Summaries of the flooding oracle, the reference the spacetime tests
   check reachability against. *)
let[@lint.allow "dead-export"] reached t =
  Array.fold_left (fun acc a -> if a >= 0 then acc + 1 else acc) 0 t.arrival

let[@lint.allow "dead-export"] reachability_ratio snap ~t_create =
  let n = Snapshot.n_nodes snap in
  let reached_pairs = ref 0 in
  for src = 0 to n - 1 do
    let fl = flood snap ~src ~t_create in
    (* exclude the source itself *)
    reached_pairs := !reached_pairs + reached fl - 1
  done;
  float_of_int !reached_pairs /. float_of_int (n * (n - 1))
