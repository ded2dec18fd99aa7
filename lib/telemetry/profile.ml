(* Human profile report: the span forest aggregated by name path
   (every "runner.task" under the same parent is one row — calls,
   total wall, self wall), the merged counter table, and histogram
   digests. Aggregation spans all tracks, so a domain-parallel
   section's total can exceed the run's wall time; coverage is judged
   against the main track only, where roots nest the whole run. *)

(* One aggregation node: spans sharing a name under the same parent. *)
type node = {
  mutable calls : int;
  mutable total : float;
  mutable child_time : float;
  children : (string, node) Hashtbl.t;
}

let make_node () = { calls = 0; total = 0.; child_time = 0.; children = Hashtbl.create 4 }

let rec add_span node (s : Telemetry.span) =
  let child =
    match Hashtbl.find_opt node.children s.Telemetry.s_name with
    | Some c -> c
    | None ->
      let c = make_node () in
      Hashtbl.add node.children s.Telemetry.s_name c;
      c
  in
  child.calls <- child.calls + 1;
  child.total <- child.total +. s.Telemetry.s_duration;
  List.iter
    (fun (sub : Telemetry.span) ->
      child.child_time <- child.child_time +. sub.Telemetry.s_duration;
      add_span child sub)
    s.Telemetry.s_children

(* Rows ordered heaviest-first; ties (and the zero-duration case)
   break on the name so the report is a function of the summary. *)
let ordered_children node =
  Psn_det.Det_tbl.bindings ~cmp:String.compare node.children
  |> List.sort (fun (n1, c1) (n2, c2) ->
         match Float.compare c2.total c1.total with
         | 0 -> String.compare n1 n2
         | c -> c)

let rec render_node b ~depth name node =
  let self = Float.max 0. (node.total -. node.child_time) in
  Buffer.add_string b
    (Printf.sprintf "  %-*s %6d %9.3f %9.3f\n"
       (Int.max 1 (40 - (2 * depth)))
       (String.make (2 * depth) ' ' ^ name)
       node.calls node.total self);
  List.iter (fun (n, c) -> render_node b ~depth:(depth + 1) n c) (ordered_children node)

let coverage (summary : Telemetry.summary) =
  let main_total =
    List.fold_left
      (fun acc (s : Telemetry.span) ->
        if s.Telemetry.s_track = 0 then acc +. s.Telemetry.s_duration else acc)
      0. summary.Telemetry.roots
  in
  if summary.Telemetry.elapsed > 0. then main_total /. summary.Telemetry.elapsed *. 100.
  else 0.

(* Histogram digests, one row per name. %g keeps tiny durations
   readable where fixed-point columns would round to 0.0. *)
let hist_rows b ~header rows =
  match rows with
  | [] -> ()
  | rows ->
    Buffer.add_string b
      (Printf.sprintf "  %-40s %6s %9s %9s %9s %9s %9s\n" header "n" "p50" "p90" "p99" "p999"
         "max");
    List.iter
      (fun (name, hh) ->
        let d = Hist.digest hh in
        Buffer.add_string b
          (Printf.sprintf "  %-40s %6d %9.3g %9.3g %9.3g %9.3g %9.3g\n" name d.Hist.d_count
             d.Hist.d_p50 d.Hist.d_p90 d.Hist.d_p99 d.Hist.d_p999 d.Hist.d_max))
      rows

let render ?(title = "profile") (summary : Telemetry.summary) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "== %s ==\n" title);
  Buffer.add_string b
    (Printf.sprintf "wall time %.3f s; spans cover %.1f%% of the main track\n"
       summary.Telemetry.elapsed (coverage summary));
  if summary.Telemetry.dropped_ends > 0 then
    Buffer.add_string b
      (Printf.sprintf "(%d unbalanced span end(s) dropped)\n" summary.Telemetry.dropped_ends);
  (* Aggregate every track's roots under one synthetic parent. *)
  let root = make_node () in
  List.iter
    (fun (s : Telemetry.span) -> add_span root s)
    summary.Telemetry.roots;
  Buffer.add_string b
    (Printf.sprintf "  %-40s %6s %9s %9s\n" "span (all tracks)" "calls" "total s" "self s");
  List.iter (fun (n, c) -> render_node b ~depth:0 n c) (ordered_children root);
  (match summary.Telemetry.counters with
  | [] -> ()
  | counters ->
    Buffer.add_string b "counters\n";
    List.iter
      (fun (name, v) -> Buffer.add_string b (Printf.sprintf "  %-40s %12d\n" name v))
      counters);
  hist_rows b ~header:"histogram (values)" summary.Telemetry.hists;
  hist_rows b ~header:"histogram (span durations, s)" summary.Telemetry.span_hists;
  Buffer.contents b
