(* sim-fig9: Runner.outcomes_many over the paper's six algorithms x S
   workload seeds with the paper workload (rate 1/4 s over 2 h), on a
   dense (infocom06_am) and a sparse (conext06_am) trace generated at
   set-up, then the Fig. 9 pooling. Engine event build, sort and drain
   dominate, plus oracle construction in the factories; there is no
   enumeration, snapshot or store. *)

open Util
module T = Core.Telemetry

let name = "sim-fig9"

(* Extra set-ups per untraced run: cheap ones, so enough of them for a
   steady median. *)
let n_setups = 20
let datasets = [ Core.Dataset.infocom06_am; Core.Dataset.conext06_am ]
let n_seeds cfg = if cfg.tiny then 1 else 4
let entries = Core.Registry.paper_six

(* Workload seeds for the runner: one per (run seed, index). *)
let workload_seeds cfg tag = List.init (n_seeds cfg) (fun i -> sub_seed cfg.seed (Printf.sprintf "%s/%d" tag i))

let setup cfg ~sink _ =
  List.map
    (fun d ->
      let trace, _ = dataset_trace ~sink ~seed:cfg.seed d in
      let spec =
        {
          Core.Runner.workload = Core.Workload.paper_spec ~n_nodes:(Core.Trace.n_nodes trace);
          seeds = workload_seeds cfg ("workload/" ^ d.Core.Dataset.name);
        }
      in
      (trace, spec))
    datasets

(* Per-domain should_forward counters for traced reps: counted, not
   timed, so the wrapper costs two increments per decision. Each domain
   registers its counter once, under [lock]. *)
type decisions = { mutable decided : int; mutable accepted : int }

let all_decisions = ref []
let lock = Mutex.create ()

let decisions_key =
  Domain.DLS.new_key (fun () ->
      let d = { decided = 0; accepted = 0 } in
      Mutex.protect lock (fun () -> all_decisions := d :: !all_decisions);
      d)

let counted (f : Core.Algorithm.factory) : Core.Algorithm.factory =
 fun trace ->
  let a = f trace in
  let d = Domain.DLS.get decisions_key in
  {
    a with
    Core.Algorithm.should_forward =
      (fun ctx ->
        let ok = a.Core.Algorithm.should_forward ctx in
        d.decided <- d.decided + 1;
        if ok then d.accepted <- d.accepted + 1;
        ok);
  }

let digests_of outs rows =
  let outs = List.concat_map (List.map (fun o -> digest (Core.Store_codec.encode_outcome o))) outs in
  let rows = List.map (fun r -> digest (Core.Store_codec.encode_metrics r)) rows in
  Array.of_list (outs @ rows)

(* The Fig. 9 grid on both traces, then per-algorithm pooling. *)
let rep ~jobs ~sink ~wrap inputs =
  let factories = List.map (fun (e : Core.Registry.entry) -> wrap e.Core.Registry.factory) entries in
  List.map
    (fun (trace, spec) ->
      let outs =
        T.with_span sink "parallel.fanout" (fun () ->
            Core.Runner.outcomes_many ~jobs ~telemetry:sink ~trace ~spec ~factories ())
      in
      let rows =
        T.with_span sink "runner.metrics" (fun () ->
            List.map (fun o -> T.with_span sink "metrics.pool" (fun () -> Core.Metrics.pool o)) outs)
      in
      (outs, rows))
    inputs

let digests_of_rep results = Array.concat (List.map (fun (outs, rows) -> digests_of outs rows) results)

let run cfg =
  let ledger = Ledger.create () in
  let inputs, first_setup = setup_once (fun () -> Ledger.traced_if cfg.traced ledger (fun sink -> setup cfg ~sink 0)) in
  let between, setup_samples = spread_setups ~n:n_setups (fun i -> ignore (setup cfg ~sink:T.Sink.null i)) in
  let c = checks () in
  let runs = List.length datasets * List.length entries * n_seeds cfg in
  let first = ref [||] in
  let walls = ref [] and traced_walls = ref [] in
  let one ~traced i =
    let results, wall =
      if traced then time (fun () -> Ledger.traced ledger (fun sink -> rep ~jobs:cfg.jobs ~sink ~wrap:counted inputs))
      else time (fun () -> rep ~jobs:cfg.jobs ~sink:T.Sink.null ~wrap:Fun.id inputs)
    in
    let digests = digests_of_rep results in
    if traced then traced_walls := wall :: !traced_walls else walls := wall :: !walls;
    if cfg.corrupt && i = 1 then digests.(0) <- Int64.logxor digests.(0) 1L;
    if i = 0 then begin
      first := digests;
      check_reference cfg c ~workload:name ~ops:(Array.length digests) (combine digests)
    end
    else check_all c ~expected:!first digests
  in
  let phase = timed_phase cfg ~between one in
  (* jobs 1 against jobs nproc. *)
  check_all c ~expected:!first (digests_of_rep (rep ~jobs:1 ~sink:T.Sink.null ~wrap:Fun.id inputs));
  let layers =
    if not cfg.traced then []
    else begin
      let n_traced = float_of_int (List.length !traced_walls) in
      let per_rep v = v /. n_traced in
      let fanout = Ledger.total ledger "parallel.fanout" in
      let wall = sum !traced_walls in
      let domain_time = (float_of_int cfg.jobs *. fanout) +. (wall -. fanout) in
      let idle = (float_of_int cfg.jobs *. fanout) -. Ledger.total ledger "runner.task" in
      let layer_spans =
        [ "runner.task"; "runner.factory"; "engine.run"; "engine.setup"; "engine.drain"; "engine.finish"; "runner.metrics"; "metrics.pool" ]
      in
      let covered = idle +. sum (List.map (Ledger.self ledger) layer_spans) in
      let decided = List.fold_left (fun acc d -> acc + d.decided) 0 !all_decisions in
      let accepted = List.fold_left (fun acc d -> acc + d.accepted) 0 !all_decisions in
      let engine_busy = Ledger.total ledger "engine.run" in
      [
        ("generator.generate_s", Ledger.total ledger "generator.generate");
        ("engine.runs", per_rep (Ledger.count ledger "engine.runs"));
        ("engine.busy_s", per_rep engine_busy);
        ("engine.events", per_rep (Ledger.count ledger "engine.events"));
        ("engine.events_per_s", Ledger.ratio (Ledger.count ledger "engine.events") engine_busy);
        ("engine.setup_s", per_rep (Ledger.total ledger "engine.setup"));
        ("engine.drain_s", per_rep (Ledger.total ledger "engine.drain"));
        ("engine.finish_s", per_rep (Ledger.total ledger "engine.finish"));
        ("engine.transmissions", per_rep (Ledger.count ledger "engine.transmissions"));
        ("forwarding.factory_s", per_rep (Ledger.total ledger "runner.factory"));
        ("forwarding.decisions", per_rep (float_of_int decided));
        ("forwarding.accept_ratio", Ledger.ratio (float_of_int accepted) (float_of_int decided));
        ("parallel.jobs", float_of_int cfg.jobs);
        ("parallel.idle_s", per_rep idle);
        ("runner.metrics_s", per_rep (Ledger.total ledger "runner.metrics"));
        ("runner.task_self_s", per_rep (Ledger.self ledger "runner.task"));
        ("metrics.pool_s", per_rep (Ledger.total ledger "metrics.pool"));
        ("trace.coverage", Ledger.ratio covered domain_time);
        ("trace.uncovered_ratio", 1. -. Ledger.ratio covered domain_time);
        ("trace.overhead_ratio", Ledger.ratio (median !traced_walls) (median !walls));
        ("kernel.engine_epidemic50_ns", Kernels.engine_epidemic50 ~tiny:cfg.tiny);
      ]
    end
  in
  {
    setup_s = setup_time phase (first_setup :: setup_samples ());
    work_per_s = rate phase (List.rev_map (fun w -> (float_of_int runs, w)) !walls);
    speed = median (Array.to_list phase.speed);
    run_jobs = cfg.jobs;
    reps = phase.reps;
    checks = c;
    digest = combine !first;
    layers;
  }
