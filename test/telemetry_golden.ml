(* Deterministic telemetry scenario for the Chrome-trace and profile
   goldens. The fake clock ticks one second per reading, so every
   timestamp, duration and derived report line is byte-stable; the
   goldens therefore pin the exporters' exact field order and
   formatting. *)

module T = Core.Telemetry

let summary () =
  let t = ref (-1.) in
  let clock () =
    t := !t +. 1.;
    !t
  in
  let c = T.create ~clock () in
  let s = T.sink c in
  T.with_span s ~args:[ ("command", T.Str "golden") ] "psn.command" (fun () ->
      T.with_span s
        ~args:[ ("algorithm", T.Str "epidemic"); ("seed", T.Int 1000) ]
        "engine.run"
        (fun () ->
          T.count s "engine.events" 42;
          T.hist s "runner.delivery_delay_s" 12.5;
          T.hist s "runner.delivery_delay_s" 340.);
      let kids = T.fork s 2 in
      (* Histograms recorded on forked sinks merge by bucket sum at
         join — the goldens pin the merged digest's rendering. *)
      T.hist kids.(0) "runner.delivery_delay_s" 48.;
      T.hist kids.(1) "runner.delivery_delay_s" 0.75;
      (* Mirrors Runner.run_seed: the factory span nests inside the
         task span, so construction time lands in the task's totals. *)
      T.with_span kids.(0) "runner.task" (fun () ->
          T.count kids.(0) "runner.tasks" 1;
          T.with_span kids.(0) "runner.factory" (fun () -> ()));
      T.with_span kids.(1) "runner.task" (fun () ->
          T.count kids.(1) "runner.tasks" 1;
          T.with_span kids.(1) "runner.factory" (fun () -> ()));
      T.join s kids;
      T.count s "engine.events" 8);
  T.close c

let () =
  match Sys.argv with
  | [| _; "chrome" |] -> print_string (Core.Chrome.to_json (summary ()))
  | [| _; "profile" |] -> print_string (Core.Profile.render ~title:"golden" (summary ()))
  | _ ->
    prerr_endline "usage: telemetry_golden (chrome|profile)";
    exit 2
