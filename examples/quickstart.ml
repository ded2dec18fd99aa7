(* Quickstart: generate a synthetic conference trace, enumerate the
   valid forwarding paths of one message, and look at the path
   explosion.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. A trace: 98 Bluetooth devices over three conference hours.
     Presets mirror the paper's measurement windows; everything is
     seeded, so this program always prints the same numbers. *)
  let trace = Core.Dataset.(generate infocom06_am) in
  Format.printf "%a@.@." Core.Trace.pp_stats trace;

  (* 2. The space-time graph at the paper's 10 s discretisation. *)
  let snapshot = Core.Snapshot.of_trace trace in

  (* 3. Pick a message: source node 5 to node 60, created at t = 900 s,
     and enumerate its valid forwarding paths (Fig. 3 algorithm). *)
  let result =
    Core.Enumerate.run
      ~config:
        { Core.Enumerate.k = 2000; max_hops = None; stop_at_total = Some 2000; exhaustive = false }
      snapshot ~src:5 ~dst:60 ~t_create:900.
  in
  let summary = Core.Explosion.analyze ~n_explosion:2000 result in
  (match (summary.Core.Explosion.optimal_duration, summary.Core.Explosion.te) with
  | Some duration, Some te ->
    Format.printf "optimal path duration: %.0f s@." duration;
    Format.printf "paths enumerated:      %d@." summary.Core.Explosion.n_arrivals;
    Format.printf "time to explosion:     %.0f s (2000th path)@.@." te
  | Some duration, None ->
    Format.printf "optimal path duration: %.0f s (%d paths, no full explosion)@.@." duration
      summary.Core.Explosion.n_arrivals
  | None, _ -> Format.printf "message cannot be delivered within the trace@.@.");

  (* 4. The three shortest paths, as node@step sequences. *)
  Array.iteri
    (fun i (a : Core.Enumerate.arrival) ->
      if i < 3 then
        Format.printf "path %d (%d hand-offs, arrives %.0f s): %a@." (i + 1)
          (Core.Path.transfers a.Core.Enumerate.path)
          a.Core.Enumerate.time Core.Path.pp a.Core.Enumerate.path)
    result.Core.Enumerate.arrivals;

  (* 5. And the headline comparison: epidemic forwarding vs a simple
     history-based algorithm on a real workload. *)
  let spec =
    {
      Core.Runner.workload = Core.Workload.paper_spec ~n_nodes:(Core.Trace.n_nodes trace);
      seeds = Core.Runner.default_seeds 1;
    }
  in
  Format.printf "@.";
  let contenders = [ ("Epidemic", Core.Epidemic.factory); ("FRESH", Core.Fresh.factory) ] in
  List.iter2
    (fun (label, _) outcomes ->
      let m = Core.Metrics.pool outcomes in
      Format.printf "%-10s success %.3f, mean delay %.0f s@." label m.Core.Metrics.success_rate
        m.Core.Metrics.mean_delay)
    contenders
    (Core.Runner.outcomes_many ~trace ~spec ~factories:(List.map snd contenders) ())
