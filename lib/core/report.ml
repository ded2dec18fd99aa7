module Table = Psn_stats.Table
module Cdf = Psn_stats.Cdf
module Metrics = Psn_sim.Metrics

let heading title body = Printf.sprintf "== %s ==\n%s" title body

let sparkline counts =
  let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |] in
  let max_count = Array.fold_left Int.max 1 counts in
  (* Compress to at most 60 cells by averaging neighbouring bins. *)
  let cells = Int.min 60 (Array.length counts) in
  let per_cell = float_of_int (Array.length counts) /. float_of_int cells in
  String.init cells (fun cell ->
      let lo = int_of_float (float_of_int cell *. per_cell) in
      let hi =
        Int.min (Array.length counts) (int_of_float (float_of_int (cell + 1) *. per_cell))
      in
      let hi = Int.max (lo + 1) hi in
      let sum = ref 0 in
      for i = lo to hi - 1 do
        sum := !sum + counts.(i)
      done;
      let avg = float_of_int !sum /. float_of_int (hi - lo) in
      let level = int_of_float (avg /. float_of_int max_count *. 7.) in
      glyphs.(Int.max 0 (Int.min 7 level)))

let render_timeseries ~title series =
  let rows =
    List.map
      (fun (label, ts) ->
        let counts = Psn_stats.Timeseries.counts ts in
        [
          label;
          Printf.sprintf "%.1f" (Psn_stats.Timeseries.mean_rate ts *. 60.);
          Printf.sprintf "%.3f" (Psn_stats.Timeseries.stability ts);
          sparkline counts;
        ])
      series
  in
  heading title
    (Table.render ~header:[ "dataset"; "contacts/min"; "cv"; "evolution (start -> end)" ] rows)

let render_cdfs ~title cdfs =
  match cdfs with
  | [] -> heading title "(no data)"
  | _ ->
    let quantiles = List.init 11 (fun i -> float_of_int i /. 10.) in
    let header = "P[X<=x]" :: List.map (fun (label, _) -> label) cdfs in
    let rows =
      List.map
        (fun q ->
          Printf.sprintf "%.2f" q
          :: List.map (fun (_, cdf) -> Printf.sprintf "%.1f" (Cdf.inverse cdf q)) cdfs)
        quantiles
    in
    heading title
      (Table.render ~align:(List.init (List.length header) (fun _ -> Table.Right)) ~header rows
      ^ "\n(values are the x at which each dataset's CDF reaches the row's probability)")

let quantile_row values =
  let arr = Array.of_list values in
  List.map
    (fun q -> Printf.sprintf "%.0f" (Psn_stats.Quantile.quantile arr q))
    [ 0.; 0.25; 0.5; 0.75; 0.95; 1. ]

let render_scatter ~title points =
  match points with
  | [] -> heading title "(no data)"
  | _ ->
    let xs = List.map fst points and ys = List.map snd points in
    let summary =
      Table.render
        ~align:[ Table.Left; Right; Right; Right; Right; Right; Right ]
        ~header:[ ""; "min"; "q1"; "median"; "q3"; "p95"; "max" ]
        [ "T1 duration (s)" :: quantile_row xs; "TE (s)" :: quantile_row ys ]
    in
    let sample =
      List.filteri (fun i _ -> i < 12) points
      |> List.map (fun (x, y) -> Printf.sprintf "(%.0f, %.0f)" x y)
      |> String.concat " "
    in
    heading title
      (Printf.sprintf "%s\nfirst points (T1 dur, TE): %s  [%d total]" summary sample
         (List.length points))

let render_scatter_by_pair ~title groups =
  let rows =
    List.map
      (fun (pair, points) ->
        match points with
        | [] -> [ Classify.pair_type_name pair; "0"; "-"; "-"; "-"; "-" ]
        | _ ->
          let xs = Array.of_list (List.map fst points) in
          let ys = Array.of_list (List.map snd points) in
          let q a p = Psn_stats.Quantile.quantile a p in
          [
            Classify.pair_type_name pair;
            string_of_int (List.length points);
            Printf.sprintf "%.0f" (q xs 0.5);
            Printf.sprintf "%.0f" (q xs 0.95);
            Printf.sprintf "%.0f" (q ys 0.5);
            Printf.sprintf "%.0f" (q ys 0.95);
          ])
      groups
  in
  heading title
    (Table.render
       ~align:[ Table.Left; Right; Right; Right; Right; Right ]
       ~header:[ "pair"; "msgs"; "T1 med"; "T1 p95"; "TE med"; "TE p95" ]
       rows)

let render_histogram ~title hist =
  let counts = Psn_stats.Histogram.counts hist in
  if Array.for_all (fun c -> c = 0) counts && Psn_stats.Histogram.total hist = 0 then
    heading title "(no qualifying messages at this scale)"
  else
  let max_count = Array.fold_left Int.max 1 counts in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i c ->
           let bar_len = c * 40 / max_count in
           [
             Printf.sprintf "%.0f" (Psn_stats.Histogram.bin_center hist i);
             string_of_int c;
             String.make bar_len '#';
           ])
         counts)
  in
  heading title
    (Table.render ~align:[ Table.Right; Right; Left ] ~header:[ "t-T1 (s)"; "paths"; "" ] rows
    ^ Printf.sprintf "\n(+%d beyond window)" (Psn_stats.Histogram.overflow hist))

let metrics_row (label, (m : Metrics.t)) =
  [
    label;
    Printf.sprintf "%.3f" m.Metrics.success_rate;
    (if Float.is_nan m.Metrics.mean_delay then "-" else Printf.sprintf "%.0f" m.Metrics.mean_delay);
    (if Float.is_nan m.Metrics.median_delay then "-"
     else Printf.sprintf "%.0f" m.Metrics.median_delay);
    string_of_int m.Metrics.delivered;
    string_of_int m.Metrics.messages;
    string_of_int m.Metrics.copies;
    (let o = Metrics.overhead m in
     if Float.is_nan o then "-" else Printf.sprintf "%.2f" o);
  ]

let metrics_header =
  [ "algorithm"; "success"; "mean delay"; "median"; "delivered"; "msgs"; "copies"; "overhead" ]

let metrics_align = [ Table.Left; Table.Right; Right; Right; Right; Right; Right; Right ]

let render_metrics ~title rows =
  heading title (Table.render ~align:metrics_align ~header:metrics_header (List.map metrics_row rows))

let render_metrics_by_pair ~title groups =
  let body =
    List.map
      (fun (pair, rows) ->
        Printf.sprintf "-- %s --\n%s" (Classify.pair_type_name pair)
          (Table.render ~align:metrics_align ~header:metrics_header (List.map metrics_row rows)))
      groups
    |> String.concat "\n"
  in
  heading title body

(* Failed sweep cells, one line each; "" when the run was healthy so
   reports stay byte-identical to the pre-failpoint ones. *)
let failed_lines failed =
  match failed with
  | [] -> ""
  | cells ->
    "\n"
    ^ (cells
      |> List.map (fun (algo, seed, reason) ->
             Printf.sprintf "FAILED %s seed %Ld: %s" algo seed reason)
      |> String.concat "\n")

(* Leads with a newline: callers append this to a rendered table,
   whose last row has no trailing newline. *)
let render_failed_cells ~title failed =
  match failed with
  | [] -> ""
  | cells -> "\n" ^ heading title (String.trim (failed_lines cells))

let render_resilience ~title levels =
  let module Explosion = Psn_paths.Explosion in
  let module Faults = Psn_sim.Faults in
  let med of_survival survivals =
    match List.filter_map of_survival survivals with
    | [] -> Float.nan
    | vs -> Psn_stats.Quantile.median (Array.of_list vs)
  in
  let level_block (l : Experiments.resilience_level) =
    let rows = List.map metrics_row (Experiments.fig9 l.Experiments.res_sim) in
    let n_probes = List.length l.Experiments.res_survival in
    let delivered =
      List.length (List.filter (fun s -> s.Explosion.still_delivered) l.Experiments.res_survival)
    in
    let baseline_med =
      med (fun s -> Some (float_of_int s.Explosion.baseline_paths)) l.Experiments.res_survival
    in
    let surviving_med =
      med (fun s -> Some (float_of_int s.Explosion.surviving_paths)) l.Experiments.res_survival
    in
    let ratio_med = med (fun s -> Some s.Explosion.survival_ratio) l.Experiments.res_survival in
    let penalty_med = med (fun s -> s.Explosion.delay_penalty) l.Experiments.res_survival in
    Printf.sprintf "-- intensity %.2f: %s --\n%s\npaths: median %.0f -> %.0f surviving (ratio %.2f), %d/%d probes still delivered%s"
      l.Experiments.res_intensity
      (Format.asprintf "%a" Faults.pp_spec l.Experiments.res_spec)
      (Table.render ~align:metrics_align ~header:metrics_header rows)
      baseline_med surviving_med ratio_med delivered n_probes
      (if Float.is_nan penalty_med then "" else Printf.sprintf ", median delay penalty %+.0f s" penalty_med)
    ^ failed_lines l.Experiments.res_sim.Experiments.sim_failed
  in
  heading title
    (String.concat "\n\n" (List.map level_block levels)
    ^ "\n\n(graceful degradation = success falls sublinearly in intensity while surviving\n\
       path counts stay large; overhead = attempted transfers per successful copy)")

let render_cumulative ~title staircase =
  match Array.length staircase with
  | 0 -> heading title "(no deliveries)"
  | len ->
    let checkpoints = Int.min 12 len in
    let rows =
      List.init checkpoints (fun i ->
          let idx = (i + 1) * len / checkpoints - 1 in
          let time, count = staircase.(idx) in
          [ Printf.sprintf "%.0f" time; string_of_int count ])
    in
    heading title
      (Table.render ~align:[ Table.Right; Right ] ~header:[ "time (s)"; "paths delivered" ] rows)

let render_fig12 ~title examples =
  let body =
    List.map
      (fun (e : Experiments.fig12_example) ->
        let bursts =
          (* Collapse arrivals into (offset, count) bursts for display. *)
          List.fold_left
            (fun acc offset ->
              match acc with
              | (o, c) :: rest when Float.abs (o -. offset) < 0.5 -> (o, c + 1) :: rest
              | _ -> (offset, 1) :: acc)
            [] e.Experiments.arrival_offsets
          |> List.rev
          |> List.map (fun (o, c) -> Printf.sprintf "%+.0fs:%d" o c)
          |> String.concat " "
        in
        let algorithms =
          List.map
            (fun (name, offset) ->
              match offset with
              | Some o -> Printf.sprintf "%s=%+.0fs" name o
              | None -> Printf.sprintf "%s=undelivered" name)
            e.Experiments.algorithm_offsets
          |> String.concat "  "
        in
        Printf.sprintf "msg n%d->n%d @%.0fs (T1=%.0fs)\n  arrival bursts: %s\n  algorithms:     %s"
          e.Experiments.ex_src e.Experiments.ex_dst e.Experiments.ex_t_create e.Experiments.ex_t1
          bursts algorithms)
      examples
    |> String.concat "\n"
  in
  heading title (if String.equal body "" then "(no suitable example messages)" else body)

let render_hop_rates ~title rows =
  let table_rows =
    List.map
      (fun (hop, summary, (lo, hi)) ->
        [
          string_of_int hop;
          string_of_int (Psn_stats.Summary.count summary);
          Printf.sprintf "%.5f" (Psn_stats.Summary.mean summary);
          Printf.sprintf "[%.5f, %.5f]" lo hi;
        ])
      rows
  in
  heading title
    (Table.render
       ~align:[ Table.Right; Right; Right; Left ]
       ~header:[ "hop"; "n"; "mean rate (1/s)"; "99% CI" ]
       table_rows)

let render_hop_ratios ~title rows =
  let table_rows =
    List.map
      (fun (label, box) ->
        [
          label;
          string_of_int box.Psn_stats.Boxplot.count;
          Printf.sprintf "%.2f" box.Psn_stats.Boxplot.q1;
          Printf.sprintf "%.2f" box.Psn_stats.Boxplot.median;
          Printf.sprintf "%.2f" box.Psn_stats.Boxplot.q3;
          Printf.sprintf "%.2f" box.Psn_stats.Boxplot.whisker_hi;
        ])
      rows
  in
  heading title
    (Table.render
       ~align:[ Table.Left; Right; Right; Right; Right; Right ]
       ~header:[ "hops"; "n"; "q1"; "median"; "q3"; "whisker hi" ]
       table_rows
    ^ "\n(ratios > 1 mean the message climbs toward higher-rate nodes)")

let render_model_rows ~title rows =
  let table_rows =
    List.map
      (fun (r : Experiments.model_row) ->
        [
          Printf.sprintf "%.2f" r.Experiments.m_time;
          Printf.sprintf "%.6g" r.Experiments.m_closed;
          Printf.sprintf "%.6g" r.Experiments.m_ode;
          Printf.sprintf "%.6g" r.Experiments.m_mc;
        ])
      rows
  in
  heading title
    (Table.render
       ~align:[ Table.Right; Right; Right; Right ]
       ~header:[ "t"; "closed form"; "truncated ODE"; "Monte-Carlo" ]
       table_rows)

let render_quadrants ~title stats =
  let rows =
    List.map
      (fun (s : Psn_model.Inhomogeneous.quadrant_stats) ->
        let p = Psn_model.Inhomogeneous.predict s.Psn_model.Inhomogeneous.quadrant in
        [
          Format.asprintf "%a" Psn_model.Inhomogeneous.pp_quadrant
            s.Psn_model.Inhomogeneous.quadrant;
          Printf.sprintf "%.0f +- %.0f" s.Psn_model.Inhomogeneous.mean_t1
            s.Psn_model.Inhomogeneous.sd_t1;
          Printf.sprintf "%.0f +- %.0f" s.Psn_model.Inhomogeneous.mean_te
            s.Psn_model.Inhomogeneous.sd_te;
          Printf.sprintf "%d/%d" s.Psn_model.Inhomogeneous.deliveries
            s.Psn_model.Inhomogeneous.messages;
          (if p.Psn_model.Inhomogeneous.t1_small then "small" else "large");
          (if p.Psn_model.Inhomogeneous.te_small then "small" else "large/variable");
        ])
      stats
  in
  heading title
    (Table.render
       ~align:[ Table.Left; Right; Right; Right; Left; Left ]
       ~header:[ "pair"; "T1 (s)"; "TE (s)"; "delivered"; "predicted T1"; "predicted TE" ]
       rows)
