type t = {
  n_nodes : int;
  horizon : float;
  kinds : Node.kind array;
  contacts : Contact.t array;  (* sorted by Contact.compare_by_start *)
}

let create ~n_nodes ~horizon ?kinds contact_list =
  if n_nodes <= 0 then invalid_arg "Trace.create: need at least one node";
  if not (Float.is_finite horizon && horizon > 0.) then
    invalid_arg "Trace.create: horizon must be finite and positive";
  let kinds =
    match kinds with
    | None -> Array.make n_nodes Node.Mobile
    | Some ks ->
      if Array.length ks <> n_nodes then
        invalid_arg "Trace.create: kinds length must equal n_nodes";
      Array.copy ks
  in
  let clip (c : Contact.t) =
    if c.Contact.a >= n_nodes || c.Contact.b >= n_nodes then
      invalid_arg "Trace.create: contact references node outside population";
    if c.Contact.t_start < 0. || c.Contact.t_start >= horizon then
      invalid_arg "Trace.create: contact starts outside [0, horizon)";
    if c.Contact.t_end > horizon then
      Contact.make ~a:c.Contact.a ~b:c.Contact.b ~t_start:c.Contact.t_start ~t_end:horizon
    else c
  in
  let contacts = Array.of_list (List.map clip contact_list) in
  Array.sort Contact.compare_by_start contacts;
  { n_nodes; horizon; kinds; contacts }

let n_nodes t = t.n_nodes
let horizon t = t.horizon
let kinds t = Array.copy t.kinds

let contacts t = Array.copy t.contacts
let n_contacts t = Array.length t.contacts
let iter_contacts t f = Array.iter f t.contacts

let contact_counts t =
  let counts = Array.make t.n_nodes 0 in
  Array.iter
    (fun (c : Contact.t) ->
      counts.(c.Contact.a) <- counts.(c.Contact.a) + 1;
      counts.(c.Contact.b) <- counts.(c.Contact.b) + 1)
    t.contacts;
  counts

let contact_rates t =
  let counts = contact_counts t in
  Array.map (fun c -> float_of_int c /. t.horizon) counts

(* Test-only: to be deleted with its unit tests (ROADMAP, "The test-only
   code left in lib/"). *)
let[@lint.allow "dead-export"] median_rate t = Psn_stats.Quantile.median (contact_rates t)

let contact_time_series t ~bin =
  let starts = Array.to_seq t.contacts |> Seq.map (fun (c : Contact.t) -> c.Contact.t_start) in
  Psn_stats.Timeseries.bin_events ~t0:0. ~t1:t.horizon ~bin starts

let restrict t ~t0 ~t1 =
  if not (t0 >= 0. && t1 <= t.horizon && t0 < t1) then
    invalid_arg "Trace.restrict: window must satisfy 0 <= t0 < t1 <= horizon";
  let clipped =
    Array.to_list t.contacts
    |> List.filter_map (fun (c : Contact.t) ->
           if not (Contact.overlaps c ~t0 ~t1) then None
           else
             let s = Float.max c.Contact.t_start t0 and e = Float.min c.Contact.t_end t1 in
             if s < e then
               Some (Contact.make ~a:c.Contact.a ~b:c.Contact.b ~t_start:(s -. t0) ~t_end:(e -. t0))
             else None)
  in
  create ~n_nodes:t.n_nodes ~horizon:(t1 -. t0) ~kinds:t.kinds clipped

let validate t =
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if Option.is_none !problem then problem := Some s) fmt in
  if Array.length t.kinds <> t.n_nodes then fail "kinds length mismatch";
  Array.iteri
    (fun i (c : Contact.t) ->
      if c.Contact.a < 0 || c.Contact.b >= t.n_nodes then fail "contact %d: node out of range" i;
      if c.Contact.a >= c.Contact.b then fail "contact %d: endpoints not normalised" i;
      if c.Contact.t_start < 0. || c.Contact.t_end > t.horizon then
        fail "contact %d: interval outside trace" i;
      if i > 0 && Contact.compare_by_start t.contacts.(i - 1) c > 0 then
        fail "contact %d: not sorted" i)
    t.contacts;
  match !problem with None -> Ok () | Some msg -> Error msg

let pp_stats ppf t =
  let counts = Array.map float_of_int (contact_counts t) in
  let q s = Psn_stats.Quantile.quantile counts s in
  let stationary =
    Array.fold_left
      (fun acc k -> if Node.equal_kind k Node.Stationary then acc + 1 else acc)
      0 t.kinds
  in
  Format.fprintf ppf
    "trace: %d nodes (%d stationary), horizon %.0f s, %d contacts;@ per-node contacts: min %.0f, q1 %.0f, median %.0f, q3 %.0f, max %.0f"
    t.n_nodes stationary t.horizon (n_contacts t) (q 0.) (q 0.25) (q 0.5) (q 0.75) (q 1.)
