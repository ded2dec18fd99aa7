(* psn: command-line interface to the PSN path-diversity library.

   Subcommands: generate, info, paths, simulate, serve, experiment,
   communities, store, metrics.
   Run `psn --help` or `psn <cmd> --help` for details. *)

open Cmdliner

(* Exit codes, listed by [exits] under EXIT STATUS on every help page
   and in the README. Usage errors include cmdliner's own parse errors
   (see [term_err] at the end of this file). *)
let exit_runtime = 1
let exit_usage_code = 2
let exit_corrupt = 3

let exits =
  Cmd.Exit.
    [
      info ok ~doc:"on success.";
      info exit_runtime ~doc:"on a runtime failure (bad input file, I/O or injected error).";
      info exit_usage_code ~doc:"on a usage error (bad flag, flag value or section id).";
      info exit_corrupt ~doc:"when $(b,store verify) finds a corrupt stored frame.";
      info (Core.Interrupt.exit_code 2) ~doc:"on SIGINT (128 + the signal number).";
      info (Core.Interrupt.exit_code 15) ~doc:"on SIGTERM (128 + the signal number).";
      info Core.Failpoint.crash_exit_code ~doc:"on a crash injected with $(b,--failpoints).";
      info internal_error ~doc:"on unexpected internal errors (bugs).";
    ]

let exit_err msg =
  Printf.eprintf "psn: %s\n" msg;
  exit exit_runtime

(* Bad flag values are usage errors, same class as cmdliner's parse
   errors — distinct from runtime failures so scripts can tell a typo
   from a broken run. *)
let exit_usage msg =
  Printf.eprintf "psn: %s\n" msg;
  exit exit_usage_code

(* Library validation errors (Invalid_argument), I/O failures
   (Sys_error) and injected failures must reach the user as one stderr
   line and a non-zero exit, not a backtrace. An armed flight recorder
   (serve --flight) dumps first; disarmed, the dump does nothing. *)
let or_die f =
  let die ~reason msg =
    Core.Flight.dump ~reason ();
    exit_err msg
  in
  match f () with
  | v -> v
  | exception (Invalid_argument msg | Sys_error msg) -> die ~reason:("uncaught error: " ^ msg) msg
  | exception (Core.Failpoint.Injected _ as ex) ->
    let msg = Core.Failpoint.describe ex in
    die ~reason:msg msg

(* --- shared arguments --- *)

(* Resolved as cmdliner checks the flags, so an unknown name is a usage
   error on every command. *)
let dataset_term =
  let doc =
    "Dataset preset to use. One of: "
    ^ String.concat ", " (List.map (fun d -> d.Core.Dataset.name) Core.Dataset.all)
    ^ "."
  in
  let resolve name =
    match Core.Dataset.find name with Ok d -> d | Error msg -> exit_usage msg
  in
  Term.(
    const resolve
    $ Arg.(value & opt string "infocom06-9-12" & info [ "d"; "dataset" ] ~docv:"NAME" ~doc))

let seed_arg =
  let doc = "Override the preset's random seed." in
  Arg.(value & opt (some int64) None & info [ "seed" ] ~docv:"SEED" ~doc)

(* On experiment --seed draws the message sample, not the trace. *)
let sample_seed_arg =
  let doc = "Seed of the sampled messages, not of the trace (default 17)." in
  Arg.(value & opt (some int64) None & info [ "seed" ] ~docv:"SEED" ~doc)

let trace_arg =
  let doc = "Read the contact trace from $(docv) instead of generating a preset." in
  Arg.(value & opt (some file) None & info [ "t"; "trace" ] ~docv:"FILE" ~doc)

let resolve_trace dataset seed trace_path =
  match trace_path with
  | Some path -> (
    match Core.Trace_io.load ~path with
    | Ok trace -> (Printf.sprintf "file:%s" path, trace)
    | Error msg -> exit_err (Printf.sprintf "cannot load %s: %s" path msg))
  | None -> (dataset.Core.Dataset.label, Core.Dataset.generate ?seed dataset)

let jobs_arg =
  let doc =
    "Worker domains for multi-seed simulation and multi-message enumeration sweeps. \
     Defaults to the number of cores; results are identical for any value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let jobs_term =
  let resolve = function
    | None -> Core.Parallel.default_jobs ()
    | Some j when j >= 1 -> j
    | Some _ -> exit_usage "--jobs must be at least 1"
  in
  Term.(const resolve $ jobs_arg)

let chunk_arg =
  let doc =
    "Tasks claimed per scheduling grab in parallel sweeps. Defaults to a heuristic \
     (~4 chunks per worker); results are identical for any value."
  in
  Arg.(value & opt (some int) None & info [ "chunk" ] ~docv:"N" ~doc)

let chunk_term =
  let resolve = function
    | None -> None
    | Some c when c >= 1 -> Some c
    | Some _ -> exit_usage "--chunk must be at least 1"
  in
  Term.(const resolve $ chunk_arg)

let store_arg =
  let doc =
    "Memoize results in the content-addressed store at $(docv) (created if missing). \
     Entries already present are replayed bit-identically instead of recomputed; see \
     'psn store --help' for maintenance."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let resolve_store ?telemetry =
  Option.map (fun dir -> or_die (fun () -> Core.Store.open_ ?telemetry ~dir ()))

(* Run [f] with the opened store (if any) and report what the store
   contributed to this invocation. *)
let with_store_report store f =
  match store with
  | None -> f ()
  | Some st ->
    let before = Core.Store.stats st in
    let r = f () in
    let after = Core.Store.stats st in
    Format.printf "store %s: %Ld hit(s), %Ld miss(es) this run; %d entries (%d bytes)@."
      (Core.Store.dir st)
      (Int64.sub after.Core.Store.hits before.Core.Store.hits)
      (Int64.sub after.Core.Store.misses before.Core.Store.misses)
      after.Core.Store.entries after.Core.Store.bytes;
    r

(* --- robustness: failpoints, checkpoint/resume --- *)

let failpoints_arg =
  let doc =
    "Deterministic fault injection: comma-separated $(i,site=action) rules where action is \
     error or crash, optionally qualified with @N (Nth hit) or %P (probability per hit, \
     hashed from the seed). An injected crash exits with code 170 and no cleanup; see \
     DESIGN.md for the site list."
  in
  Arg.(value & opt (some string) None & info [ "failpoints" ] ~docv:"SPEC" ~doc)

let failpoint_seed_arg =
  let doc = "Seed of probabilistic ($(i,%P)) failpoint verdicts." in
  Arg.(value & opt int64 0L & info [ "failpoint-seed" ] ~docv:"SEED" ~doc)

(* The parsed plan, not yet installed: commands install it once their
   own flags have been checked. *)
let failpoints_term =
  let parse spec fp_seed =
    Option.map
      (fun s ->
        match Core.Failpoint.parse ~seed:fp_seed s with
        | Ok plan -> plan
        | Error msg -> exit_usage msg)
      spec
  in
  Term.(const parse $ failpoints_arg $ failpoint_seed_arg)

let checkpoint_arg =
  let doc =
    "Persist completed results to the --store every $(docv) tasks, so a killed sweep \
     loses at most one round of work. 0 disables checkpointing; the default is 32 \
     whenever --store is given."
  in
  Arg.(value & opt (some int) None & info [ "checkpoint" ] ~docv:"N" ~doc)

let resolve_checkpoint ~store = function
  | Some c when c < 0 -> exit_usage "--checkpoint must be non-negative"
  | Some c when c > 0 && Option.is_none store ->
    exit_usage "--checkpoint requires --store DIR (checkpoints live in the store)"
  | Some c -> c
  | None -> if Option.is_some store then 32 else 0

let resume_flag =
  let doc =
    "Resume an interrupted sweep: cells already checkpointed in the --store replay \
     bit-identically, only the missing ones are recomputed. Requires --store; the \
     combined output equals an uninterrupted run's."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

(* Sweep subcommands: catch the cooperative-interrupt exception every
   sweep raises after a signal, flush telemetry (so --trace-out/--profile
   still produce output) and exit with the conventional 128+signal.
   Only a sweep with a store has anywhere to checkpoint to. *)
let run_sweep ~checkpointed ~finish f =
  Core.Interrupt.install ();
  match f () with
  | () -> ()
  | exception Core.Interrupt.Interrupted n ->
    Printf.eprintf "psn: interrupted by signal %d%s\n%!" n
      (if checkpointed then "; completed work is checkpointed" else "");
    finish ();
    exit (Core.Interrupt.exit_code n)

(* --- telemetry --- *)

(* Atomic text write (temp + rename): a scraper or validator reading
   the path never observes a half-written exposition. *)
let write_text_atomic ~path text =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc text);
  Sys.rename tmp path

let metrics_arg =
  let doc =
    "After the run, write an OpenMetrics text exposition of its telemetry (counters, \
     value histograms, span-duration histograms) to $(docv). Value metrics are \
     bit-identical for any --jobs and --chunk; wall-time families carry a \
     span-duration/elapsed help line. Check the format with 'psn metrics check'."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Write a Chrome trace-event JSON profile of this invocation to $(docv). Open it in \
     Perfetto (ui.perfetto.dev) or chrome://tracing; parallel sections render as one \
     track per worker domain."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let profile_flag =
  let doc =
    "After the results, print a profile report: span tree with per-phase total/self \
     times, counters, histogram digests and the store hit rate."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

(* Recording is wired up only when asked for: with neither --trace-out nor
   --profile the sink stays null, so the instrumented hot paths cost a
   pattern match. [finish] must run after all of the command's work and
   normal output. *)
type telemetry_ctx = {
  sink : Core.Telemetry.sink;
  finish : store:Core.Store.t option -> unit;
}

let telemetry_ctx ~command ~trace_out ~profile ~metrics =
  if Option.is_none trace_out && not profile && Option.is_none metrics then
    { sink = Core.Telemetry.Sink.null; finish = (fun ~store:_ -> ()) }
  else begin
    let c = Core.Telemetry.create () in
    let sink = Core.Telemetry.sink c in
    (* One root span over everything the command does, so the profile
       report's coverage line reflects the whole invocation. *)
    Core.Telemetry.begin_span sink
      ~args:[ ("command", Core.Telemetry.Str command) ]
      "psn.command";
    let finish ~store =
      Core.Telemetry.end_span sink;
      let summary = Core.Telemetry.close c in
      (match trace_out with
      | None -> ()
      | Some path ->
        or_die (fun () -> Core.Chrome.save summary ~path);
        Format.printf "wrote Chrome trace to %s@." path);
      (match metrics with
      | None -> ()
      | Some path ->
        or_die (fun () ->
            write_text_atomic ~path
              (Core.Openmetrics.render (Core.Openmetrics.of_summary summary)));
        Format.printf "wrote metrics to %s@." path);
      if profile then begin
        print_string (Core.Profile.render ~title:(Printf.sprintf "psn %s" command) summary);
        match store with
        | None -> ()
        | Some st -> (
          let s = Core.Store.stats st in
          match s.Core.Store.hit_rate with
          | Some rate ->
            Format.printf "store hit rate: %.1f%% (%Ld of %Ld lookups)@." (100. *. rate)
              s.Core.Store.hits
              (Int64.add s.Core.Store.hits s.Core.Store.misses)
          | None -> Format.printf "store hit rate: n/a (no lookups yet)@.")
      end
    in
    { sink; finish }
  end

(* --- sweeps --- *)

(* The flags every sweep subcommand shares — --jobs --chunk --store
   --failpoints --failpoint-seed --checkpoint --resume
   --trace-out --profile --metrics — validated as cmdliner
   evaluates them. The term's value runs one sweep: it installs the
   failpoints, opens the store, runs [compute] with the resolved
   settings as one [Experiments.exec], reports what the store
   contributed, then hands the result to [render] and flushes
   telemetry. [compute] and [render] run under [or_die] and
   [run_sweep], so injected and I/O errors exit 1 and signals exit
   128+n on every sweep alike. It takes [()] so each command gets its
   own instance of the term's polymorphic type. *)
let sweep_term () =
  let make jobs chunk store failpoints checkpoint resume trace_out profile metrics =
    if resume && Option.is_none store then
      exit_usage "--resume requires --store DIR (checkpoints live in the store)";
    let checkpoint = resolve_checkpoint ~store checkpoint in
    fun ~command compute render ->
      Option.iter Core.Failpoint.install failpoints;
      let ctx = telemetry_ctx ~command ~trace_out ~profile ~metrics in
      let store = resolve_store ~telemetry:ctx.sink store in
      let exec =
        { Core.Experiments.jobs = Some jobs; chunk; store; checkpoint; telemetry = ctx.sink }
      in
      run_sweep ~checkpointed:(Option.is_some store)
        ~finish:(fun () -> ctx.finish ~store)
        (fun () ->
          or_die (fun () -> render (with_store_report store (fun () -> compute exec)));
          ctx.finish ~store)
  in
  Term.(
    const make $ jobs_term $ chunk_term $ store_arg $ failpoints_term $ checkpoint_arg
    $ resume_flag $ trace_out_arg $ profile_flag $ metrics_arg)

(* --- fault flags --- *)

(* --loss --crash-rate --down-time --jitter --fault-seed as one
   validated spec, shared by experiment and serve. [defaults] gives each
   flag's default; [at] names, in the docs, the intensity the values
   apply at. The crash rate is read per hour and stored per second. An
   out-of-range spec exits 2. *)
let faults_term ~(defaults : Core.Faults.spec) ~at =
  let loss =
    Arg.(
      value & opt float defaults.loss
      & info [ "loss" ] ~docv:"P"
          ~doc:(Printf.sprintf "Per-transfer loss probability%s (in [0, 1))." at))
  in
  let crash_rate =
    Arg.(
      value
      & opt float (defaults.crash_rate *. 3600.)
      & info [ "crash-rate" ] ~docv:"PER_HOUR" ~doc:(Printf.sprintf "Node crashes per hour%s." at))
  in
  let down_time =
    Arg.(
      value & opt float defaults.down_time
      & info [ "down-time" ] ~docv:"SECONDS" ~doc:"Mean downtime per crash, seconds.")
  in
  let jitter =
    Arg.(
      value & opt float defaults.jitter
      & info [ "jitter" ] ~docv:"FRAC"
          ~doc:
            (Printf.sprintf "Maximum fraction of each contact truncated%s (in [0, 1])." at))
  in
  let fault_seed =
    Arg.(
      value & opt int64 defaults.seed
      & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Seed of every fault decision.")
  in
  let make loss crash_rate down_time jitter seed =
    let spec = { Core.Faults.loss; crash_rate = crash_rate /. 3600.; down_time; jitter; seed } in
    match Core.Faults.validate spec with Error msg -> exit_usage msg | Ok () -> spec
  in
  Term.(const make $ loss $ crash_rate $ down_time $ jitter $ fault_seed)

(* --- generate --- *)

let generate_cmd =
  let output =
    let doc = "Output path for the trace file." in
    Arg.(value & opt string "trace.psn" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run dataset seed output =
    let trace = Core.Dataset.generate ?seed dataset in
    or_die (fun () -> Core.Trace_io.save trace ~path:output);
    Format.printf "wrote %s: %a@." output Core.Trace.pp_stats trace
  in
  let term = Term.(const run $ dataset_term $ seed_arg $ output) in
  Cmd.v
    (Cmd.info "generate" ~exits
       ~doc:"Generate a synthetic iMote-style contact trace and save it.")
    term

(* --- info --- *)

let info_cmd =
  let run dataset seed trace_path =
    let label, trace = resolve_trace dataset seed trace_path in
    Format.printf "%s@.%a@." label Core.Trace.pp_stats trace;
    let classify = Core.Classify.of_trace trace in
    Format.printf "median contact rate: %.5f /s (%d 'in' nodes)@."
      (Core.Classify.median_rate classify)
      (Core.Classify.n_in classify);
    let ts = Core.Trace.contact_time_series trace ~bin:60. in
    Format.printf "aggregate: %.1f contacts/min, stability cv=%.3f@."
      (Core.Timeseries.mean_rate ts *. 60.)
      (Core.Timeseries.stability ts)
  in
  let term = Term.(const run $ dataset_term $ seed_arg $ trace_arg) in
  Cmd.v (Cmd.info "info" ~exits ~doc:"Print summary statistics of a trace.") term

(* --- paths --- *)

let paths_cmd =
  let src =
    Arg.(required & opt (some int) None & info [ "src" ] ~docv:"NODE" ~doc:"Source node.")
  in
  let dst =
    Arg.(required & opt (some int) None & info [ "dst" ] ~docv:"NODE" ~doc:"Destination node.")
  in
  let time =
    Arg.(value & opt float 0. & info [ "time" ] ~docv:"SECONDS" ~doc:"Message creation time.")
  in
  let limit =
    Arg.(value & opt int 10 & info [ "limit" ] ~docv:"N" ~doc:"Paths to print in full.")
  in
  let k =
    let doc = "Enumeration parameter k (per-node retention and stop threshold)." in
    let resolve k = if k >= 1 then k else exit_usage "-k must be at least 1" in
    Term.(const resolve $ Arg.(value & opt int 2000 & info [ "k" ] ~docv:"K" ~doc))
  in
  let run dataset seed trace_path k src dst time limit =
    let label, trace = resolve_trace dataset seed trace_path in
    let snap = Core.Snapshot.of_trace trace in
    let config =
      { Core.Enumerate.k; max_hops = None; stop_at_total = Some k; exhaustive = false }
    in
    let result = or_die (fun () -> Core.Enumerate.run ~config snap ~src ~dst ~t_create:time) in
    let summary = Core.Explosion.analyze ~n_explosion:k result in
    Format.printf "%s: message n%d -> n%d created at %.0f s@." label src dst time;
    (match summary.Core.Explosion.optimal_duration with
    | None -> Format.printf "no valid path reaches the destination within the trace@."
    | Some d ->
      Format.printf "%d path(s) enumerated; optimal duration %.0f s@."
        summary.Core.Explosion.n_arrivals d;
      (match summary.Core.Explosion.te with
      | Some te -> Format.printf "time to explosion (n*=%d): %.0f s@." k te
      | None -> ());
      Array.iteri
        (fun i (a : Core.Enumerate.arrival) ->
          if i < limit then
            Format.printf "  #%d at %.0f s (%d hops): %a@." (i + 1) a.Core.Enumerate.time
              (Core.Path.transfers a.Core.Enumerate.path)
              Core.Path.pp a.Core.Enumerate.path)
        result.Core.Enumerate.arrivals)
  in
  let term =
    Term.(const run $ dataset_term $ seed_arg $ trace_arg $ k $ src $ dst $ time $ limit)
  in
  Cmd.v
    (Cmd.info "paths" ~exits
       ~doc:"Enumerate valid forwarding paths for one message (Fig. 3 algorithm).")
    term

(* --- simulate --- *)

let simulate_cmd =
  let module E = Core.Experiments in
  let algorithms =
    let doc =
      "Comma-separated algorithm names. Available: "
      ^ String.concat ", " (List.map (fun e -> e.Core.Registry.name) Core.Registry.all)
      ^ ". Default: the paper's six."
    in
    Arg.(value & opt (some string) None & info [ "a"; "algorithms" ] ~docv:"NAMES" ~doc)
  in
  let seeds = Arg.(value & opt int 3 & info [ "seeds" ] ~docv:"N" ~doc:"Runs to average.") in
  let run dataset seed trace_path algorithms seeds sweep =
    if seeds < 1 then exit_usage "--seeds must be at least 1";
    let entries =
      match algorithms with
      | None -> Core.Registry.paper_six
      | Some spec ->
        List.fold_left
          (fun acc name ->
            let name = String.trim name in
            if List.exists (fun e -> String.equal e.Core.Registry.name name) acc then
              exit_usage (Printf.sprintf "algorithm %S is named more than once" name);
            match Core.Registry.find name with Ok e -> e :: acc | Error msg -> exit_usage msg)
          [] (String.split_on_char ',' spec)
        |> List.rev
    in
    let label, trace = resolve_trace dataset seed trace_path in
    let input = { E.name = label; label; seed = 0L; trace } in
    sweep ~command:"simulate"
      (fun exec -> E.sim_study ~exec ~scale:{ E.default_scale with seeds } input entries)
      (fun sim ->
        print_endline
          (Core.Report.render_metrics
             ~title:(Printf.sprintf "Forwarding performance (%s, %d seeds)" label seeds)
             (E.fig9 sim)
          ^ Core.Report.render_failed_cells ~title:"Failed simulation cells" sim.E.sim_failed))
  in
  let term =
    Term.(
      const run $ dataset_term $ seed_arg $ trace_arg $ algorithms $ seeds
      $ sweep_term ())
  in
  Cmd.v
    (Cmd.info "simulate" ~exits ~doc:"Run forwarding algorithms over a trace and report S and D.")
    term

(* --- serve --- *)

let serve_cmd =
  let script =
    let doc =
      "Read protocol lines from $(docv) instead of standard input ('-'). One request per \
       line: contact events in the trace format (a,b,t_start,t_end), 'advance T', \
       'inject SRC DST [T]', 'paths SRC DST [T]', 'delivery SRC DST [T]', 'route', \
       'stats', 'metrics', 'snapshot', 'quit'; blank lines and '#' comments are skipped."
    in
    Arg.(value & opt string "-" & info [ "script" ] ~docv:"FILE" ~doc)
  in
  let span =
    Arg.(
      value & opt float 3600.
      & info [ "window" ] ~docv:"SECONDS" ~doc:"Sliding-window length in stream seconds.")
  in
  let budget =
    Arg.(
      value & opt int 200_000
      & info [ "budget" ] ~docv:"N" ~doc:"Hard cap on live contacts held in the window.")
  in
  let policy =
    Arg.(
      value
      & opt (enum [ ("drop", Core.Serve_window.Drop); ("slide", Core.Serve_window.Slide) ])
          Core.Serve_window.Slide
      & info [ "policy" ] ~docv:"drop|slide"
          ~doc:
            "What an over-budget ingest does: 'drop' rejects the incoming contact, 'slide' \
             evicts the earliest-ending live contacts to make room.")
  in
  let nodes =
    Arg.(
      value & opt int 0
      & info [ "nodes" ] ~docv:"N"
          ~doc:
            "Fixed population size (contacts naming nodes beyond it are errors). 0 grows \
             the population with the stream.")
  in
  let delta =
    Arg.(
      value & opt float 10.
      & info [ "delta" ] ~docv:"SECONDS" ~doc:"Rasterisation step for 'paths' queries.")
  in
  let k =
    Arg.(
      value & opt int 64
      & info [ "k" ] ~docv:"K" ~doc:"Paths retained per node in 'paths' enumeration.")
  in
  let strategies =
    let doc =
      "Comma-separated forwarding strategies the router balances across. Available \
       (online only): "
      ^ String.concat ", " (List.map (fun e -> e.Core.Registry.name) Core.Registry.online)
      ^ ". Default: all of them."
    in
    Arg.(value & opt (some string) None & info [ "a"; "strategies" ] ~docv:"NAMES" ~doc)
  in
  let alpha =
    Arg.(
      value & opt float Core.Multipath.default_config.Core.Multipath.alpha
      & info [ "alpha" ] ~docv:"A" ~doc:"EWMA smoothing factor of the router, in (0, 1].")
  in
  let explore =
    Arg.(
      value & opt int Core.Multipath.default_config.Core.Multipath.explore
      & info [ "explore" ] ~docv:"N"
          ~doc:"Observations below which a strategy scores as optimistic (forced sampling).")
  in
  let session =
    Arg.(
      value & opt string "default"
      & info [ "session" ] ~docv:"NAME"
          ~doc:"Snapshot slot name inside the --store (one live snapshot per name).")
  in
  let snapshot_every =
    Arg.(
      value & opt int 0
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Also write a snapshot after every $(docv) ingested contacts (0: only at \
             end-of-stream). Requires --store.")
  in
  let serve_resume =
    let doc =
      "Resume the --session snapshot from the --store and continue the stream where it \
       left off; replies continue byte-identically to an uninterrupted run."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let serve_jobs =
    let doc =
      "Worker domains for per-strategy query fan-out. Defaults to 1 (reusing one \
       scratch); replies are identical for any value."
    in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let metrics_out =
    let doc =
      "Maintain an OpenMetrics text exposition of the server's value metrics at $(docv) \
       (written atomically via temp+rename, so a scraper never sees a torn file). \
       Refreshed at end-of-stream, and during the stream with --metrics-every. The \
       same exposition is available in-band through the 'metrics' protocol verb."
    in
    Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let metrics_every =
    let doc =
      "Also rewrite --metrics-out after every $(docv) protocol lines (0: only at \
       end-of-stream). Requires --metrics-out."
    in
    Arg.(value & opt int 0 & info [ "metrics-every" ] ~docv:"N" ~doc)
  in
  let flight_out =
    let doc =
      "Arm the flight recorder: keep a bounded ring of recent structured events \
       (protocol lines, window evictions, drops, failpoint trips, store activity) and \
       dump them to $(docv) as a post-mortem JSON on an injected crash, a terminating \
       signal or an uncaught error. Validate with 'psn metrics check --flight'."
    in
    Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)
  in
  let run script span budget policy nodes delta k strategies alpha explore faults store session
      snapshot_every resume jobs chunk trace_out profile metrics_out metrics_every flight_out
      failpoints =
    if jobs < 1 then exit_usage "--jobs must be at least 1";
    if metrics_every < 0 then exit_usage "--metrics-every must be non-negative";
    if metrics_every > 0 && Option.is_none metrics_out then
      exit_usage "--metrics-every requires --metrics-out FILE";
    if snapshot_every < 0 then exit_usage "--snapshot-every must be non-negative";
    if snapshot_every > 0 && Option.is_none store then
      exit_usage "--snapshot-every requires --store DIR (snapshots live in the store)";
    if resume && Option.is_none store then
      exit_usage "--resume requires --store DIR (snapshots live in the store)";
    let config =
      {
        Core.Serve.window = { Core.Serve_window.span; budget; policy; nodes };
        delta;
        k;
        strategies =
          (match strategies with
          | None -> []
          | Some spec -> String.split_on_char ',' spec |> List.map String.trim);
        router = { Core.Multipath.alpha; explore };
        faults = (if Core.Faults.is_null faults then None else Some faults);
      }
    in
    Option.iter Core.Failpoint.install failpoints;
    (* Arm before the failpoints can trip: an injected crash dumps the
       recorder from inside the failpoint site itself. *)
    Option.iter (fun path -> Core.Flight.arm path) flight_out;
    let ctx = telemetry_ctx ~command:"serve" ~trace_out ~profile ~metrics:None in
    let store = resolve_store ~telemetry:ctx.sink store in
    let server =
      let fresh () =
        match
          Core.Serve.create ~telemetry:ctx.sink ?store ~session ~jobs ?chunk config
        with
        | Ok s -> s
        | Error msg -> exit_usage msg
      in
      if resume then begin
        let st = Option.get store in
        match Core.Store.find_blob st (Core.Store_key.named ~family:"serve-snapshot" session) with
        | None ->
          exit_err
            (Printf.sprintf "no snapshot for session %S in %s" session (Core.Store.dir st))
        | Some text -> (
          match
            Core.Serve.restore ~telemetry:ctx.sink ?store ~session ~jobs ?chunk text
          with
          | Ok s -> s
          | Error msg -> exit_err msg)
      end
      else fresh ()
    in
    let input = if String.equal script "-" then stdin else or_die (fun () -> open_in script) in
    let close_input () = if not (String.equal script "-") then close_in_noerr input in
    (* End-of-session snapshot — also the signal-drain path: every exit
       except an injected crash persists the session when a store is
       configured, so `--resume` continues byte-identically. *)
    let write_metrics () =
      match metrics_out with
      | None -> ()
      | Some path -> write_text_atomic ~path (Core.Serve.metrics_text server)
    in
    let drain () =
      (if Option.is_some store then
         match Core.Serve.write_snapshot server with
         | Ok _ -> ()
         | Error msg -> Printf.eprintf "psn: snapshot failed: %s\n%!" msg);
      write_metrics ()
    in
    let print_reply lines = List.iter print_endline lines in
    Core.Interrupt.install ();
    let last_snap = ref 0 in
    let lines_seen = ref 0 in
    let rec loop () =
      Core.Interrupt.check ();
      match input_line input with
      | exception End_of_file -> drain ()
      | line -> (
        match Core.Serve.handle server line with
        | `Stop lines ->
          print_reply lines;
          drain ()
        | `Reply lines ->
          print_reply lines;
          incr lines_seen;
          if metrics_every > 0 && !lines_seen mod metrics_every = 0 then write_metrics ();
          (if snapshot_every > 0 then begin
             let s = Core.Serve.summary server in
             let ingested = s.Core.Serve.s_ingested in
             if ingested > !last_snap && ingested mod snapshot_every = 0 then begin
               last_snap := ingested;
               match Core.Serve.write_snapshot server with
               | Ok _ -> ()
               | Error msg -> exit_err msg
             end
           end);
          loop ())
    in
    (match or_die loop with
    | () -> ()
    | exception Core.Interrupt.Interrupted n ->
      Printf.eprintf "psn: interrupted by signal %d; session snapshotted\n%!" n;
      Core.Flight.dump ~reason:(Printf.sprintf "terminated by signal %d" n) ();
      drain ();
      close_input ();
      ctx.finish ~store;
      exit (Core.Interrupt.exit_code n));
    close_input ();
    ctx.finish ~store
  in
  let term =
    Term.(
      const run $ script $ span $ budget $ policy $ nodes $ delta $ k $ strategies $ alpha
      $ explore
      $ faults_term ~defaults:{ Core.Faults.none with down_time = 300.; seed = 99L } ~at:""
      $ store_arg $ session
      $ snapshot_every $ serve_resume $ serve_jobs $ chunk_term $ trace_out_arg
      $ profile_flag $ metrics_out $ metrics_every $ flight_out $ failpoints_term)
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Serve forwarding queries over a live contact stream: a sliding bounded window of \
          recent contacts, an adaptive multipath router balancing online strategies by \
          EWMA loss and delay, and snapshot/resume through the result store. Reads the \
          line protocol from --script or standard input; replies are byte-identical for \
          any --jobs. The 'metrics' verb (and --metrics-out) exposes live OpenMetrics \
          counters and histograms; --flight arms a crash flight recorder.")
    term

(* --- experiment --- *)

let experiment_cmd =
  let module E = Core.Experiments in
  let ids =
    let doc = "Section ids to print, in the order given; none prints every section." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let paper =
    let doc = "Use the paper's scale: 1800 messages, k = 2000, 10 seeds." in
    Arg.(value & flag & info [ "paper" ] ~doc)
  in
  let messages =
    let doc = "Messages per enumeration study, overriding the scale's." in
    Arg.(value & opt (some int) None & info [ "messages" ] ~docv:"N" ~doc)
  in
  let dump =
    let doc =
      "Also write the series of Figs. 4, 5, 7 and 10 and R01's inter-contact CDFs as gnuplot \
       files into $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"DIR" ~doc)
  in
  let run ids dataset seed trace_path paper messages dump faults sweep =
    (match List.filter (fun id -> not (List.mem id Core.Catalogue.ids)) ids with
    | [] -> ()
    | unknown ->
      exit_usage
        (Printf.sprintf "unknown section %s; valid ids: %s" (String.concat ", " unknown)
           (String.concat ", " Core.Catalogue.ids)));
    let base = if paper then E.paper_scale else E.default_scale in
    let n_messages = Option.value messages ~default:base.E.n_messages in
    if n_messages < 1 then exit_usage "--messages must be at least 1";
    let scale = { base with n_messages; rng_seed = Option.value seed ~default:base.rng_seed } in
    (* A file samples with --seed alone; a preset mixes in its own seed. *)
    let input =
      match trace_path with
      | None -> E.of_dataset dataset
      | Some _ ->
        let label, trace = resolve_trace dataset None trace_path in
        { E.name = label; label; seed = 0L; trace }
    in
    sweep ~command:"experiment"
      (fun exec ->
        let ctx = Core.Catalogue.context ~exec ?dump ~faults ~scale input in
        (* Each section prints as soon as it is rendered. *)
        Printf.printf "%s\n\n%!" (Core.Catalogue.scale_line ctx);
        List.iter
          (fun id -> Printf.printf "%s\n\n%!" (Core.Catalogue.render ctx id))
          (if List.is_empty ids then Core.Catalogue.ids else ids))
      Fun.id
  in
  let term =
    Term.(
      const run $ ids $ dataset_term $ sample_seed_arg $ trace_arg $ paper $ messages $ dump
      $ faults_term ~defaults:E.default_fault_spec ~at:" at intensity 1"
      $ sweep_term ())
  in
  Cmd.v
    (Cmd.info "experiment" ~exits
       ~doc:
         "Print the paper's figures, models and ablations. Single-dataset sections run on \
          --trace FILE or the --dataset preset, and multi-dataset ones add it as a row; the \
          fault flags set the resilience section's spec at intensity 1.")
    term

(* --- communities --- *)

let communities_cmd =
  let min_weight =
    Arg.(
      value & opt float 60.
      & info [ "min-weight" ] ~docv:"SECONDS"
          ~doc:"Ignore pairs with less than this much cumulative contact.")
  in
  let from_arg =
    Arg.(
      value & opt (some float) None
      & info [ "from" ] ~docv:"SECONDS"
          ~doc:
            "Restrict to contacts after this time. Communities in venue traces are \
             time-local (people rotate rooms), so a session-sized window shows much \
             stronger structure than the whole day.")
  in
  let until_arg =
    Arg.(
      value & opt (some float) None
      & info [ "until" ] ~docv:"SECONDS" ~doc:"Restrict to contacts before this time.")
  in
  let run dataset seed trace_path min_weight from_time until_time =
    let label, trace = resolve_trace dataset seed trace_path in
    let trace =
      match (from_time, until_time) with
      | None, None -> trace
      | t0, t1 ->
        let t0 = Option.value t0 ~default:0. in
        let t1 = Option.value t1 ~default:(Core.Trace.horizon trace) in
        or_die (fun () -> Core.Trace.restrict trace ~t0 ~t1)
    in
    let c = Core.Community.detect ~min_weight trace in
    Format.printf "%s: %d communities (modularity %.3f)@." label (Core.Community.n_communities c)
      (Core.Community.modularity c trace);
    Array.iteri
      (fun lbl size ->
        if size >= 2 then begin
          let members = Core.Community.members c lbl in
          let shown = List.filteri (fun i _ -> i < 12) members in
          Format.printf "  #%d (%d nodes): %s%s@." lbl size
            (String.concat " " (List.map (Printf.sprintf "n%d") shown))
            (if size > 12 then " ..." else "")
        end)
      (Core.Community.sizes c)
  in
  let term =
    Term.(const run $ dataset_term $ seed_arg $ trace_arg $ min_weight $ from_arg $ until_arg)
  in
  Cmd.v
    (Cmd.info "communities" ~exits ~doc:"Detect contact communities (label propagation).")
    term

(* --- store --- *)

let store_cmd =
  let action =
    Arg.(
      required
      & pos 0 (some (enum [ ("stats", `Stats); ("gc", `Gc); ("verify", `Verify) ])) None
      & info [] ~docv:"ACTION"
          ~doc:
            "One of: stats (entry count, size, lifetime hit/miss counters), gc (evict \
             least-recently-used entries down to --max-bytes), verify (decode and \
             CRC-check every frame on disk).")
  in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR" ~doc:"Store directory to operate on.")
  in
  let max_bytes =
    Arg.(
      value & opt int 0
      & info [ "max-bytes" ] ~docv:"BYTES"
          ~doc:
            "For gc: keep at most this many bytes of entry data (default 0, which \
             empties the store).")
  in
  let run action dir max_bytes failpoints =
    if max_bytes < 0 then exit_usage "--max-bytes must be non-negative";
    Option.iter Core.Failpoint.install failpoints;
    let st = or_die (fun () -> Core.Store.open_ ~dir ()) in
    match action with
    | `Stats ->
      let s = Core.Store.stats st in
      Format.printf "store %s: %d entries, %d bytes@." dir s.Core.Store.entries
        s.Core.Store.bytes;
      Format.printf "lifetime: %Ld hit(s), %Ld miss(es)@." s.Core.Store.hits
        s.Core.Store.misses;
      (match s.Core.Store.hit_rate with
      | Some rate -> Format.printf "hit rate: %.1f%%@." (100. *. rate)
      | None -> Format.printf "hit rate: n/a (no lookups yet)@.");
      Format.printf "recovery at open: %d orphaned tmp file(s) swept, %d journal intent(s) replayed@."
        s.Core.Store.tmp_swept s.Core.Store.journal_replays
    | `Gc ->
      let r = Core.Store.gc st ~max_bytes in
      Format.printf "evicted %d entries (%d bytes); kept %d (%d bytes)@."
        r.Core.Store.evicted r.Core.Store.freed_bytes r.Core.Store.kept
        r.Core.Store.kept_bytes
    | `Verify ->
      let r = Core.Store.verify st in
      List.iter
        (fun (e : Core.Store.fsck_error) ->
          Format.printf "%s: offset %d: %s@." e.Core.Store.fsck_path e.Core.Store.fsck_offset
            e.Core.Store.fsck_reason)
        r.Core.Store.fsck_errors;
      Format.printf "verify: %d frame(s) checked, %d ok, %d error(s)@." r.Core.Store.checked
        r.Core.Store.ok
        (List.length r.Core.Store.fsck_errors);
      if not (List.is_empty r.Core.Store.fsck_errors) then exit exit_corrupt
  in
  let term = Term.(const run $ action $ dir $ max_bytes $ failpoints_term) in
  Cmd.v
    (Cmd.info "store" ~exits
       ~doc:
         "Maintain a content-addressed result store (see --store on simulate and \
          experiment): report stats, evict old entries, or fsck every stored frame.")
    term

(* --- metrics --- *)

let metrics_cmd =
  let action =
    Arg.(
      required
      & pos 0 (some (enum [ ("check", `Check) ])) None
      & info [] ~docv:"ACTION" ~doc:"Only 'check': validate a file and exit 0/1.")
  in
  let file =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FILE" ~doc:"File to validate.")
  in
  let flight_flag =
    let doc =
      "Validate $(i,FILE) as a flight-recorder post-mortem dump (JSON) instead of an \
       OpenMetrics exposition."
    in
    Arg.(value & flag & info [ "flight" ] ~doc)
  in
  let run action file flight =
    match action with
    | `Check ->
      let text = or_die (fun () -> In_channel.with_open_bin file In_channel.input_all) in
      if flight then begin
        match Core.Flight.validate text with
        | Ok events -> Format.printf "%s: valid flight dump, %d event(s)@." file events
        | Error msg -> exit_err (Printf.sprintf "%s: invalid flight dump: %s" file msg)
      end
      else begin
        match Core.Openmetrics.validate text with
        | Ok () -> Format.printf "%s: valid OpenMetrics exposition@." file
        | Error msg -> exit_err (Printf.sprintf "%s: invalid exposition: %s" file msg)
      end
  in
  let term = Term.(const run $ action $ file $ flight_flag) in
  Cmd.v
    (Cmd.info "metrics" ~exits
       ~doc:
         "Validate observability artifacts: the OpenMetrics expositions written by \
          --metrics / --metrics-out / the serve 'metrics' verb, and (with --flight) the \
          flight-recorder post-mortem dumps.")
    term

let main_cmd =
  let doc = "Path diversity in pocket switched networks: reproduction toolkit." in
  let info = Cmd.info "psn" ~version:"1.0.0" ~exits ~doc in
  Cmd.group info
    [
      generate_cmd;
      info_cmd;
      paths_cmd;
      simulate_cmd;
      serve_cmd;
      experiment_cmd;
      communities_cmd;
      store_cmd;
      metrics_cmd;
    ]

(* cmdliner's own parse failures (unknown flag, bad positional) exit
   with [term_err] too, so every usage error — ours or cmdliner's — is
   code 2. *)
let () = exit (Cmd.eval ~term_err:exit_usage_code main_cmd)
