(* Tests for the core umbrella library: node classification, hop-rate
   analyses, the experiment drivers and the report renderers. *)

module Classify = Core.Classify
module Hops = Core.Hops
module E = Core.Experiments
module R = Core.Report
module Path = Core.Path
module Trace = Core.Trace
module Contact = Core.Contact

let feps = Alcotest.float 1e-9

let contains s sub =
  let slen = String.length s and sublen = String.length sub in
  let rec scan i = i + sublen <= slen && (String.sub s i sublen = sub || scan (i + 1)) in
  scan 0

(* A trace where node rates are strictly ordered: node i has i contacts. *)
let graded_trace () =
  let contacts =
    List.concat_map
      (fun i ->
        List.init i (fun j ->
            let s = (float_of_int ((i * 13) + j) *. 7.) +. 1. in
            Contact.make ~a:i ~b:((i + 1 + j) mod 6) ~t_start:s ~t_end:(s +. 2.)))
      [ 1; 2; 3; 4; 5 ]
  in
  Trace.create ~n_nodes:6 ~horizon:600. contacts

(* --- Det_tbl --- *)

let test_det_tbl_sorted_views () =
  let tbl = Hashtbl.create 7 in
  List.iter (fun k -> Hashtbl.add tbl k (k * 10)) [ 5; 1; 9; 3; 7; 0; 8 ];
  Alcotest.(check (list (pair int int)))
    "bindings sorted by key"
    [ (0, 0); (1, 10); (3, 30); (5, 50); (7, 70); (8, 80); (9, 90) ]
    (Core.Det_tbl.bindings ~cmp:Int.compare tbl);
  let seen = ref [] in
  Core.Det_tbl.iter ~cmp:Int.compare (fun k _ -> seen := k :: !seen) tbl;
  Alcotest.(check (list int)) "iter ascending" [ 0; 1; 3; 5; 7; 8; 9 ] (List.rev !seen);
  Alcotest.(check (list int)) "fold ascending" [ 9; 8; 7; 5; 3; 1; 0 ]
    (Core.Det_tbl.fold (fun k _ acc -> k :: acc) ~cmp:Int.compare tbl [])

let test_det_tbl_duplicate_keys () =
  (* Hashtbl.add shadows: the sort is stable, so a duplicated key keeps
     its bindings most-recent-first, matching Hashtbl.find_all. *)
  let tbl = Hashtbl.create 7 in
  Hashtbl.add tbl 2 "old";
  Hashtbl.add tbl 1 "only";
  Hashtbl.add tbl 2 "new";
  Alcotest.(check (list (pair int string)))
    "duplicates most-recent-first"
    [ (1, "only"); (2, "new"); (2, "old") ]
    (Core.Det_tbl.bindings ~cmp:Int.compare tbl)

(* --- Classify --- *)

let test_classify_median_split () =
  let t = graded_trace () in
  let c = Classify.of_trace t in
  (* counts grow with the index, so high indices are 'in' *)
  Alcotest.(check bool) "node 5 is in" true (Classify.node_class c 5 = Classify.In);
  Alcotest.(check bool) "node 0 is out" true (Classify.node_class c 0 = Classify.Out);
  let n_in = Classify.n_in c in
  Alcotest.(check bool)
    (Printf.sprintf "n_in %d about half" n_in)
    true
    (n_in >= 2 && n_in <= 3)

let test_classify_pair_types () =
  let t = graded_trace () in
  let c = Classify.of_trace t in
  Alcotest.(check bool) "in-in" true
    (Classify.equal_pair_type (Classify.pair_type c ~src:5 ~dst:4) Classify.In_in);
  Alcotest.(check bool) "out-in" true
    (Classify.equal_pair_type (Classify.pair_type c ~src:0 ~dst:5) Classify.Out_in);
  Alcotest.(check bool) "in-out" true
    (Classify.equal_pair_type (Classify.pair_type c ~src:5 ~dst:0) Classify.In_out);
  Alcotest.(check bool) "out-out" true
    (Classify.equal_pair_type (Classify.pair_type c ~src:0 ~dst:1) Classify.Out_out)

let test_classify_names () =
  Alcotest.(check (list string)) "paper order"
    [ "in-in"; "in-out"; "out-in"; "out-out" ]
    (List.map Classify.pair_type_name Classify.all_pair_types)

let test_classify_uniform_rates () =
  (* With identical rates nobody is strictly above the median: the
     whole population classifies as 'out' (documented tie behaviour). *)
  let t =
    Trace.create ~n_nodes:4 ~horizon:100.
      [
        Contact.make ~a:0 ~b:1 ~t_start:1. ~t_end:2.;
        Contact.make ~a:2 ~b:3 ~t_start:1. ~t_end:2.;
      ]
  in
  let c = Classify.of_trace t in
  Alcotest.(check int) "no 'in' nodes on ties" 0 (Classify.n_in c)

(* --- Hops --- *)

let hop node step = { Path.node; step }

let test_hops_mean_rates () =
  let t = graded_trace () in
  let c = Classify.of_trace t in
  let paths =
    [
      Path.of_hops [ hop 0 1; hop 3 2; hop 5 3 ];
      Path.of_hops [ hop 1 1; hop 4 2; hop 5 3 ];
    ]
  in
  let rows = Hops.mean_rates_by_hop c paths in
  Alcotest.(check int) "three hop positions" 3 (List.length rows);
  let hop0 = List.nth rows 0 and hop1 = List.nth rows 1 in
  let mean (_, s, _) = Core.Summary.mean s in
  Alcotest.(check bool) "rates climb at first hop" true (mean hop1 > mean hop0);
  let _, s0, (lo, hi) = hop0 in
  Alcotest.(check int) "two observations per hop" 2 (Core.Summary.count s0);
  Alcotest.(check bool) "CI brackets mean" true (lo <= mean hop0 && mean hop0 <= hi)

let test_hops_ratios () =
  let t = graded_trace () in
  let c = Classify.of_trace t in
  let paths = [ Path.of_hops [ hop 1 1; hop 2 2; hop 4 3 ] ] in
  let rows = Hops.rate_ratios_by_hop c paths in
  (* one intermediate transition (1->2) plus the final Dst/Lst (2->4) *)
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let label0, box0 = List.nth rows 0 in
  Alcotest.(check string) "first label" "1/0" label0;
  Alcotest.check feps "ratio value"
    (Classify.rate c 2 /. Classify.rate c 1)
    box0.Core.Boxplot.median;
  let label1, box1 = List.nth rows 1 in
  Alcotest.(check string) "final label" "Dst/Lst" label1;
  Alcotest.check feps "dst ratio"
    (Classify.rate c 4 /. Classify.rate c 2)
    box1.Core.Boxplot.median

let test_hops_skips_zero_rate_sources () =
  let t = graded_trace () in
  let c = Classify.of_trace t in
  (* node 0 has rate > 0 in graded_trace (1 contact), so fabricate a
     trace where a node never appears: node 0 of a 2-contact trace *)
  ignore c;
  let t2 =
    Trace.create ~n_nodes:3 ~horizon:100. [ Contact.make ~a:1 ~b:2 ~t_start:1. ~t_end:2. ]
  in
  let c2 = Classify.of_trace t2 in
  let rows = Hops.rate_ratios_by_hop c2 [ Path.of_hops [ hop 0 1; hop 1 2 ] ] in
  Alcotest.(check int) "zero-rate denominator skipped" 0 (List.length rows);
  ignore t

(* --- Experiments (tiny scale, one dataset) --- *)

let tiny_scale =
  { E.default_scale with E.n_messages = 8; k = 200; seeds = 1; hop_paths_per_message = 20 }

let conext_am = lazy (E.of_dataset Core.Dataset.conext06_am)
let study = lazy (E.enumeration_study ~scale:tiny_scale (Lazy.force conext_am))

let test_study_shape () =
  let s = Lazy.force study in
  Alcotest.(check int) "messages" 8 (List.length s.E.messages);
  List.iter
    (fun m ->
      Alcotest.(check bool) "src != dst" true (m.E.src <> m.E.dst);
      let sorted = Array.copy m.E.arrival_times in
      Array.sort Float.compare sorted;
      Alcotest.(check (array (float 1e-9))) "arrivals sorted" sorted m.E.arrival_times;
      if m.E.summary.Core.Explosion.delivered then
        Alcotest.(check bool) "paths sampled when delivered" true (m.E.sample_paths <> []))
    s.E.messages

let test_fig4_cdfs () =
  let s = Lazy.force study in
  (match E.fig4a [ s ] with
  | [ (_, cdf) ] -> Alcotest.(check bool) "nonempty" true (Core.Cdf.size cdf > 0)
  | _ -> Alcotest.fail "expected one cdf");
  (* fig4b may be empty if nothing exploded at this tiny scale; both
     outcomes are acceptable shapes *)
  match E.fig4b [ s ] with
  | [] -> ()
  | [ (_, cdf) ] -> Alcotest.(check bool) "nonempty" true (Core.Cdf.size cdf > 0)
  | _ -> Alcotest.fail "too many cdfs"

let test_fig5_fig8_consistent () =
  let s = Lazy.force study in
  let n5 = List.length (E.fig5 s) in
  let n8 = List.fold_left (fun acc (_, pts) -> acc + List.length pts) 0 (E.fig8 s) in
  Alcotest.(check int) "fig8 partitions fig5" n5 n8

let test_fig11_monotone () =
  let s = Lazy.force study in
  let stair = E.fig11 s in
  Array.iteri
    (fun i (_, c) -> if i > 0 then Alcotest.(check bool) "monotone" true (c >= snd stair.(i - 1)))
    stair

let test_fig14_15_run () =
  let s = Lazy.force study in
  let rows = E.fig14 s in
  Alcotest.(check bool) "hop rows exist" true (List.length rows >= 1);
  ignore (E.fig15 s)

let test_fig1_fig7 () =
  (match E.fig1 [ Lazy.force conext_am ] with
  | [ (_, ts) ] ->
    Alcotest.(check int) "180 one-minute bins" 180 (Array.length (Core.Timeseries.counts ts))
  | _ -> Alcotest.fail "expected one series");
  match E.fig7 [ Lazy.force conext_am ] with
  | [ (_, cdf) ] -> Alcotest.(check int) "98 nodes" 98 (Core.Cdf.size cdf)
  | _ -> Alcotest.fail "expected one cdf"

let test_fig2_example () =
  let text = E.fig2 () in
  Alcotest.(check bool) "step 1 edge" true (contains text "t=1: 0-1");
  Alcotest.(check bool) "step 2 triangle" true (contains text "1-2")

(* Ids select sections on the command line, so each must name one. *)
let test_catalogue_ids_unique () =
  let ids = Core.Catalogue.ids in
  Alcotest.(check int) "no duplicate id" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  let ctx = Core.Catalogue.context ~scale:tiny_scale (Lazy.force conext_am) in
  Alcotest.check_raises "unknown id" (Invalid_argument "unknown section nosuch") (fun () ->
      ignore (Core.Catalogue.render ctx "nosuch"))

(* A trace file with exact (%h) times holds the preset's own trace, so
   read back through the loader [psn experiment -t] uses, with the
   preset's seed, it prints the preset's numbers. Titles name the input,
   so only the lines below them are compared. *)
let test_catalogue_file_input () =
  let preset = Lazy.force conext_am in
  let t = preset.E.trace in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "# psn-trace v1\n# nodes %d\n# horizon %h\n" (Trace.n_nodes t)
    (Trace.horizon t);
  Array.iteri
    (fun i kind ->
      if Core.Node.equal_kind kind Core.Node.Stationary then
        Printf.bprintf buf "# kind %d stationary\n" i)
    (Trace.kinds t);
  Trace.iter_contacts t (fun (c : Contact.t) ->
      Printf.bprintf buf "%d,%d,%h,%h\n" c.a c.b c.t_start c.t_end);
  let path = Filename.temp_file "psn_exact" ".psn" in
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf);
  let trace =
    match Core.Trace_io.load ~path with Ok trace -> trace | Error msg -> Alcotest.fail msg
  in
  Sys.remove path;
  let file = { E.name = "file:" ^ path; label = "file:" ^ path; seed = preset.E.seed; trace } in
  let body ctx id =
    String.split_on_char '\n' (Core.Catalogue.render ctx id)
    |> List.filter (fun line -> not (String.starts_with ~prefix:"==" line))
  in
  let of_preset = Core.Catalogue.context ~scale:tiny_scale preset in
  let of_file = Core.Catalogue.context ~scale:tiny_scale file in
  List.iter
    (fun id ->
      let expected = body of_preset id in
      Alcotest.(check bool) (id ^ " has rows") true (List.length expected > 4);
      Alcotest.(check (list string)) id expected (body of_file id))
    [ "fig8"; "fig13" ]

let sim = lazy (E.sim_study ~scale:tiny_scale (Lazy.force conext_am) Core.Registry.paper_six)

let test_fig9_ordering () =
  let rows = E.fig9 (Lazy.force sim) in
  Alcotest.(check int) "six algorithms" 6 (List.length rows);
  let epidemic = List.assoc "Epidemic" rows in
  List.iter
    (fun (_, m) ->
      Alcotest.(check bool) "success <= epidemic" true
        (m.Core.Metrics.success_rate <= epidemic.Core.Metrics.success_rate +. 1e-9))
    rows

(* Intensity 0 of the resilience ladder goes through the same study as
   the pristine figures: a null fault plan must be no plan at all. *)
let test_sim_null_faults () =
  let faulted =
    E.sim_study ~scale:tiny_scale
      ~faults:(Core.Faults.scale 0. E.default_fault_spec)
      (Lazy.force conext_am) Core.Registry.paper_six
  in
  let pristine = E.fig9 (Lazy.force sim) and null = E.fig9 faulted in
  Alcotest.(check (list string)) "algorithms" (List.map fst pristine) (List.map fst null);
  List.iter2
    (fun (label, m) (_, f) -> Alcotest.(check bool) label true (Core.Metrics.equal m f))
    pristine null;
  Alcotest.(check int) "no failed cell" 0 (List.length faulted.E.sim_failed)

let test_fig10_has_epidemic () =
  let cdfs = E.fig10 (Lazy.force sim) in
  Alcotest.(check bool) "epidemic present" true (List.mem_assoc "Epidemic" cdfs)

let test_fig13_groups () =
  let groups = E.fig13 (Lazy.force sim) in
  Alcotest.(check int) "four pair types" 4 (List.length groups);
  List.iter
    (fun (_, rows) -> Alcotest.(check int) "six algorithms each" 6 (List.length rows))
    groups

let test_fig12_examples () =
  let s = Lazy.force study in
  let examples = E.fig12 s ~n_examples:1 in
  List.iter
    (fun ex ->
      Alcotest.(check int) "six algorithm offsets" 6 (List.length ex.E.algorithm_offsets);
      match ex.E.arrival_offsets with
      | first :: _ -> Alcotest.check feps "first offset zero" 0. first
      | [] -> Alcotest.fail "no arrivals in example")
    examples

(* The M03 model at a test-sized load: the catalogue's classes, two
   messages per quadrant over a shorter window. *)
let small_quadrants () =
  Core.Inhomogeneous.simulate
    { Core.Inhomogeneous.n = 98; frac_high = 0.5; rate_high = 0.03; rate_low = 0.005 }
    ~rng:(Core.Rng.create ~seed:11L ()) ~messages_per_quadrant:2 ~n_explosion:50 ~t_end:2000.

let test_model_tables () =
  let rows = E.model_mean_table ~n:100 ~lambda:0.5 ~times:[ 0.; 2. ] ~runs:10 in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let r0 = List.hd rows in
  Alcotest.check feps "closed at 0" 0.01 r0.E.m_closed;
  Alcotest.(check (float 1e-6)) "ode at 0" 0.01 r0.E.m_ode;
  let blow = E.model_blowup_table ~n:100 ~lambda:0.5 ~xs:[ 0.5; 2. ] in
  (match blow with
  | [ (_, None); (_, Some tc) ] -> Alcotest.(check bool) "tc positive" true (tc > 0.)
  | _ -> Alcotest.fail "unexpected blowup table");
  let quads = small_quadrants () in
  Alcotest.(check int) "four quadrants" 4 (List.length quads)

(* --- Report rendering --- *)

let test_report_metrics_render () =
  let rows = E.fig9 (Lazy.force sim) in
  let text = R.render_metrics ~title:"Fig 9 test" rows in
  Alcotest.(check bool) "has title" true (contains text "== Fig 9 test ==");
  Alcotest.(check bool) "has epidemic row" true (contains text "Epidemic");
  Alcotest.(check bool) "has header" true (contains text "success")

let test_report_cdfs_render () =
  let s = Lazy.force study in
  let text = R.render_cdfs ~title:"cdf test" (E.fig4a [ s ]) in
  Alcotest.(check bool) "probability column" true (contains text "P[X<=x]")

let test_report_empty_inputs () =
  Alcotest.(check bool) "empty cdfs" true
    (contains (R.render_cdfs ~title:"t" []) "(no data)");
  Alcotest.(check bool) "empty scatter" true
    (contains (R.render_scatter ~title:"t" []) "(no data)");
  Alcotest.(check bool) "empty staircase" true
    (contains (R.render_cumulative ~title:"t" [||]) "(no deliveries)");
  Alcotest.(check bool) "empty fig12" true
    (contains (R.render_fig12 ~title:"t" []) "(no suitable example messages)")

let test_report_quadrants_render () =
  let quads = small_quadrants () in
  let text = R.render_quadrants ~title:"quads" quads in
  List.iter
    (fun name -> Alcotest.(check bool) name true (contains text name))
    [ "in-in"; "in-out"; "out-in"; "out-out"; "predicted" ]

let test_export_roundtrip () =
  let dir = Filename.temp_file "psnexp" "" in
  Sys.remove dir;
  let cdf = Core.Cdf.of_samples [| 1.; 2.; 2.; 5. |] in
  let files = Core.Export.write_cdfs ~dir ~name:"fig4a" [ ("Infocom am", cdf) ] in
  (match files with
  | [ path ] ->
    let ic = open_in path in
    let header = input_line ic in
    let first = input_line ic in
    close_in ic;
    Alcotest.(check string) "label comment" "# Infocom am" header;
    Alcotest.(check string) "first staircase point" "1 0.25" first
  | _ -> Alcotest.fail "expected one file");
  let scatter = Core.Export.write_scatter ~dir ~name:"fig5" [ (1., 2.); (3.5, 0.) ] in
  Alcotest.(check bool) "scatter written" true (Sys.file_exists scatter);
  let script =
    Core.Export.write_gnuplot_script ~dir
      [ ("fig4a", `Lines, files); ("fig5", `Points, [ scatter ]) ]
  in
  let ic = open_in script in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  Alcotest.(check bool) "script plots fig5" true
    (contains text "fig5.dat");
  (* clean up *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let () =
  Alcotest.run "core"
    [
      ( "det_tbl",
        [
          Alcotest.test_case "sorted views" `Quick test_det_tbl_sorted_views;
          Alcotest.test_case "duplicate keys" `Quick test_det_tbl_duplicate_keys;
        ] );
      ( "classify",
        [
          Alcotest.test_case "median split" `Quick test_classify_median_split;
          Alcotest.test_case "pair types" `Quick test_classify_pair_types;
          Alcotest.test_case "names" `Quick test_classify_names;
          Alcotest.test_case "uniform rates tie" `Quick test_classify_uniform_rates;
        ] );
      ( "hops",
        [
          Alcotest.test_case "mean rates" `Quick test_hops_mean_rates;
          Alcotest.test_case "ratios" `Quick test_hops_ratios;
          Alcotest.test_case "zero-rate skip" `Quick test_hops_skips_zero_rate_sources;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "study shape" `Slow test_study_shape;
          Alcotest.test_case "fig4" `Slow test_fig4_cdfs;
          Alcotest.test_case "fig5/fig8 consistency" `Slow test_fig5_fig8_consistent;
          Alcotest.test_case "fig11 monotone" `Slow test_fig11_monotone;
          Alcotest.test_case "fig14/15" `Slow test_fig14_15_run;
          Alcotest.test_case "fig1/fig7" `Slow test_fig1_fig7;
          Alcotest.test_case "fig2" `Quick test_fig2_example;
          Alcotest.test_case "fig9 epidemic bound" `Slow test_fig9_ordering;
          Alcotest.test_case "null fault spec is no fault plan" `Slow test_sim_null_faults;
          Alcotest.test_case "fig10" `Slow test_fig10_has_epidemic;
          Alcotest.test_case "fig13 groups" `Slow test_fig13_groups;
          Alcotest.test_case "fig12 examples" `Slow test_fig12_examples;
          Alcotest.test_case "model tables" `Slow test_model_tables;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "unique ids" `Quick test_catalogue_ids_unique;
          Alcotest.test_case "file input prints the preset's numbers" `Slow
            test_catalogue_file_input;
        ] );
      ("export", [ Alcotest.test_case "round-trip" `Quick test_export_roundtrip ]);
      ( "report",
        [
          Alcotest.test_case "metrics" `Slow test_report_metrics_render;
          Alcotest.test_case "cdfs" `Slow test_report_cdfs_render;
          Alcotest.test_case "empty inputs" `Quick test_report_empty_inputs;
          Alcotest.test_case "quadrants" `Slow test_report_quadrants_render;
        ] );
    ]
