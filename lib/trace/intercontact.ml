(* Gaps between successive intervals given chronological (start, end)
   pairs. *)
let gaps_of_intervals intervals =
  let rec go acc = function
    | (_, prev_end) :: ((next_start, _) :: _ as rest) ->
      let gap = next_start -. prev_end in
      go (if gap > 0. then gap :: acc else acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  go [] intervals

(* Named input of the generator-fidelity row (ROADMAP, "An executable
   paper scorecard"), with [mean_intercontact]. *)
let[@lint.allow "dead-export"] pair_gaps trace a b =
  let n = Trace.n_nodes trace in
  if a < 0 || b < 0 || a >= n || b >= n then invalid_arg "Intercontact: node out of range";
  if a = b then invalid_arg "Intercontact: need two distinct nodes";
  let lo, hi = if a < b then (a, b) else (b, a) in
  let met = ref [] in
  Trace.iter_contacts trace (fun (c : Contact.t) ->
      if c.Contact.a = lo && c.Contact.b = hi then
        met := (c.Contact.t_start, c.Contact.t_end) :: !met);
  gaps_of_intervals (List.rev !met)

let aggregate_gaps trace =
  let n = Trace.n_nodes trace in
  (* Bucket contacts per pair in one pass, then extract gaps. *)
  let per_pair : (int, (float * float) list) Hashtbl.t = Hashtbl.create 256 in
  Trace.iter_contacts trace (fun (c : Contact.t) ->
      let key = (c.Contact.a * n) + c.Contact.b in
      let existing = Option.value ~default:[] (Hashtbl.find_opt per_pair key) in
      Hashtbl.replace per_pair key ((c.Contact.t_start, c.Contact.t_end) :: existing));
  let out = ref [] in
  (* Key-ordered extraction: the gap array's layout is a function of
     the trace, not of hash order. *)
  Psn_det.Det_tbl.iter ~cmp:Int.compare
    (fun _ intervals -> out := gaps_of_intervals (List.rev intervals) @ !out)
    per_pair;
  Array.of_list !out

(* Named input of the generator-fidelity row (ROADMAP, "An executable
   paper scorecard"). *)
let[@lint.allow "dead-export"] mean_intercontact trace a b =
  match pair_gaps trace a b with
  | [] -> Float.infinity
  | gaps -> List.fold_left ( +. ) 0. gaps /. float_of_int (List.length gaps)

let tail_exponent samples =
  match Array.length samples with
  | 0 -> None
  | _ ->
    let x_min = Psn_stats.Quantile.median samples in
    if not (x_min > 0.) then None
    else begin
      let tail = Array.to_list samples |> List.filter (fun x -> x >= x_min && x > 0.) in
      let k = List.length tail in
      if k < 10 then None
      else begin
        (* Hill estimator: alpha = k / sum(ln(x_i / x_min)). *)
        let log_sum = List.fold_left (fun acc x -> acc +. Float.log (x /. x_min)) 0. tail in
        if log_sum <= 0. then None else Some (float_of_int k /. log_sum)
      end
    end
