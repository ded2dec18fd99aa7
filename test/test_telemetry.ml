(* Telemetry semantics: span forest reconstruction (nesting,
   zero-duration spans, unbalanced ends), deterministic counter merge
   across forked per-domain buffers, fork/join track assignment, and
   the determinism contract — an instrumented run is bit-identical to
   an uninstrumented one. *)

module T = Core.Telemetry

(* One second per clock reading, starting at 0: every timestamp in a
   test is a small known integer. *)
let ticking () =
  let t = ref (-1.) in
  fun () ->
    t := !t +. 1.;
    !t

(* --- span forests --- *)

let test_nesting () =
  let c = T.create ~clock:(ticking ()) () in
  let s = T.sink c in
  T.with_span s "outer" (fun () ->
      T.with_span s "first" (fun () -> ());
      T.with_span s "second" (fun () -> ()));
  let sum = T.close c in
  match sum.T.roots with
  | [ outer ] ->
    Alcotest.(check string) "root name" "outer" outer.T.s_name;
    Alcotest.(check int) "root track" 0 outer.T.s_track;
    Alcotest.(check (list string)) "children in start order" [ "first"; "second" ]
      (List.map (fun (s : T.span) -> s.T.s_name) outer.T.s_children);
    (* clock: epoch 0, begin outer 1, begin first 2, end first 3,
       begin second 4, end second 5, end outer 6. *)
    Alcotest.(check (float 1e-9)) "outer duration" 5. outer.T.s_duration;
    List.iter
      (fun (child : T.span) ->
        Alcotest.(check (float 1e-9)) "child duration" 1. child.T.s_duration)
      outer.T.s_children
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_zero_duration () =
  let c = T.create ~clock:(fun () -> 4.2) () in
  let s = T.sink c in
  T.with_span s "instant" (fun () -> ());
  let sum = T.close c in
  Alcotest.(check (float 0.)) "elapsed" 0. sum.T.elapsed;
  match sum.T.roots with
  | [ span ] ->
    Alcotest.(check (float 0.)) "start" 0. span.T.s_start;
    Alcotest.(check (float 0.)) "duration" 0. span.T.s_duration
  | _ -> Alcotest.fail "expected one root"

let test_unbalanced () =
  let c = T.create ~clock:(ticking ()) () in
  let s = T.sink c in
  T.end_span s;
  (* nothing open: must be dropped, not crash *)
  T.begin_span s "left-open";
  let sum = T.close c in
  Alcotest.(check int) "dropped ends" 1 sum.T.dropped_ends;
  match sum.T.roots with
  | [ span ] ->
    Alcotest.(check string) "still reported" "left-open" span.T.s_name;
    (* begin at 2 (after the dropped end read 1), closed at elapsed 3. *)
    Alcotest.(check (float 1e-9)) "closed at elapsed" 1. span.T.s_duration
  | _ -> Alcotest.fail "expected the unclosed span as a root"

(* --- counters across forked buffers --- *)

let test_counter_merge () =
  let c = T.create ~clock:(ticking ()) () in
  let s = T.sink c in
  let kids = T.fork s 3 in
  (* Interleave recordings across buffers in an order no schedule would
     produce twice; the merge must not care. *)
  T.count kids.(2) "store.hits" 5;
  T.count kids.(0) "runner.tasks" 1;
  T.count kids.(1) "runner.tasks" 2;
  T.count kids.(0) "store.hits" 7;
  T.count s "runner.tasks" 10;
  T.join s kids;
  let sum = T.close c in
  Alcotest.(check (list (pair string int)))
    "summed and name-sorted"
    [ ("runner.tasks", 13); ("store.hits", 12) ]
    sum.T.counters

let test_fork_tracks () =
  let c = T.create ~clock:(ticking ()) () in
  let s = T.sink c in
  let kids = T.fork s 2 in
  T.with_span kids.(1) "on-two" (fun () -> ());
  T.with_span kids.(0) "on-one" (fun () -> ());
  T.with_span s "on-main" (fun () -> ());
  T.join s kids;
  let sum = T.close c in
  let tracks =
    List.map (fun (sp : T.span) -> (sp.T.s_name, sp.T.s_track)) sum.T.roots
  in
  (* Roots are grouped by ascending track: main 0, then child 0 on
     track 1, child 1 on track 2 — regardless of recording order. *)
  Alcotest.(check (list (pair string int)))
    "deterministic track ids"
    [ ("on-main", 0); ("on-one", 1); ("on-two", 2) ]
    tracks

let test_null_fork () =
  let kids = T.fork T.Sink.null 4 in
  Alcotest.(check int) "null forks to width" 4 (Array.length kids);
  (* all recording calls must be no-ops *)
  T.count kids.(0) "x" 1;
  T.hist kids.(1) "y" 2.;
  T.with_span kids.(2) "z" (fun () -> ());
  T.join T.Sink.null kids

(* --- determinism contract --- *)

let sample_trace () =
  Core.Trace.create ~n_nodes:5 ~horizon:2000.
    [
      Core.Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:300.;
      Core.Contact.make ~a:1 ~b:2 ~t_start:120. ~t_end:500.;
      Core.Contact.make ~a:2 ~b:3 ~t_start:400. ~t_end:900.;
      Core.Contact.make ~a:3 ~b:4 ~t_start:800. ~t_end:1500.;
      Core.Contact.make ~a:0 ~b:4 ~t_start:1200. ~t_end:1900.;
    ]

(* The paper's six algorithms over [sample_trace], 3 seeds: the sweep
   both contract tests run. *)
let sweep ?telemetry ?chunk ~jobs () =
  let trace = sample_trace () in
  let workload =
    { Core.Workload.rate = 0.02; t_start = 0.; t_end = 1000.; n_nodes = Core.Trace.n_nodes trace }
  in
  let spec = { Core.Runner.workload; seeds = Core.Runner.default_seeds 3 } in
  Core.Runner.outcomes_many ~jobs ?chunk ?telemetry ~trace ~spec
    ~factories:
      (List.map (fun (e : Core.Registry.entry) -> e.Core.Registry.factory) Core.Registry.paper_six)
    ()

let test_results_unaffected () =
  let run ?telemetry ~jobs () = List.map Core.Metrics.pool (sweep ?telemetry ~jobs ()) in
  let plain = run ~jobs:1 () in
  let c = T.create () in
  let traced = run ~telemetry:(T.sink c) ~jobs:4 () in
  let sum = T.close c in
  List.iter2
    (fun m1 m2 ->
      Alcotest.(check bool) "bit-identical with active sink" true (Core.Metrics.equal m1 m2))
    plain traced;
  (* and the instrumentation did record the work *)
  Alcotest.(check bool) "tasks counted" true
    (List.mem_assoc "runner.tasks" sum.T.counters)

(* The --metrics promise for sweeps: the value families (counters and
   value histograms) of a traced sweep are bit-identical for any
   --jobs and --chunk. *)
let test_sweep_values_schedule_free () =
  let exposition ?chunk ~jobs () =
    let c = T.create () in
    ignore (sweep ~telemetry:(T.sink c) ?chunk ~jobs ());
    Core.Openmetrics.render ~values_only:true (Core.Openmetrics.of_summary (T.close c))
  in
  let sequential = exposition ~jobs:1 () in
  Alcotest.(check bool) "delay histogram exported" true
    (List.exists
       (String.starts_with ~prefix:"psn_runner_delivery_delay_s_count")
       (String.split_on_char '\n' sequential));
  Alcotest.(check string) "jobs 4" sequential (exposition ~jobs:4 ());
  Alcotest.(check string) "jobs 2, chunk 1" sequential (exposition ~jobs:2 ~chunk:1 ())

let () =
  Alcotest.run "telemetry"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "zero duration" `Quick test_zero_duration;
          Alcotest.test_case "unbalanced close" `Quick test_unbalanced;
        ] );
      ( "fan-out",
        [
          Alcotest.test_case "counter merge" `Quick test_counter_merge;
          Alcotest.test_case "fork track ids" `Quick test_fork_tracks;
          Alcotest.test_case "null fork" `Quick test_null_fork;
        ] );
      ( "contract",
        [
          Alcotest.test_case "results unaffected" `Quick test_results_unaffected;
          Alcotest.test_case "sweep values schedule-free" `Quick test_sweep_values_schedule_free;
        ] );
    ]
