(* enum-fig4: the Fig. 4/5/8 enumeration study. Each rep fans
   Enumerate.run + Explosion.analyze over a fixed message panel through
   Parallel, against a snapshot built at set-up from a trace loaded
   through Trace_io. Nearly all the time is the path DP; the engine,
   the store and the window do no work here. *)

open Util
module T = Core.Telemetry

let name = "enum-fig4"

(* Extra set-ups per untraced run: cheap ones, so enough of them for a
   steady median. *)
let n_setups = 20
let dataset = Core.Dataset.infocom06_am

(* The first messages of the Fig. 4 study itself. Per-message cost is
   heavy-tailed (2 ms to 5 s at k = 2000), so a seed-drawn sample of the
   few dozen messages a run can afford would move the throughput by more
   than its bound from seed to seed; the seed relabels the nodes
   instead. Seven messages are about 10 s of DP on one core; an odd
   count keeps the median message a single message. *)
let panel_size cfg = if cfg.tiny then 2 else 7
let k cfg = if cfg.tiny then 50 else 2000

let enum_config cfg =
  { Core.Enumerate.k = k cfg; max_hops = None; stop_at_total = Some (k cfg); exhaustive = false }

(* Experiments.enumeration_study's sampler: uniform source, distinct
   uniform destination, creation time uniform over the first two thirds
   of the trace, from the study's own RNG seed. *)
let study_messages ~n trace =
  let rng = Core.Rng.create ~seed:(Int64.logxor Core.Experiments.default_scale.Core.Experiments.rng_seed dataset.Core.Dataset.seed) () in
  let n_nodes = Core.Trace.n_nodes trace in
  Array.init n (fun _ ->
      let src = Core.Rng.int rng n_nodes in
      let dst =
        let r = Core.Rng.int rng (n_nodes - 1) in
        if r >= src then r + 1 else r
      in
      (src, dst, Core.Rng.float rng (Core.Trace.horizon trace *. 2. /. 3.)))

let setup cfg ~sink i =
  let trace, perm = dataset_trace ~sink ~seed:cfg.seed dataset in
  let path = Filename.concat cfg.work (Printf.sprintf "infocom06_am-%d.trace" i) in
  Core.Trace_io.save trace ~path;
  let loaded =
    match T.with_span sink "trace_io.load" (fun () -> Core.Trace_io.load ~path) with
    | Ok t -> t
    | Error e -> failwith ("trace_io: " ^ e)
  in
  Sys.remove path;
  let snap = T.with_span sink "snapshot.of_trace" (fun () -> Core.Snapshot.of_trace loaded) in
  let panel =
    Array.map (fun (s, d, t) -> (perm.(s), perm.(d), t)) (study_messages ~n:(panel_size cfg) loaded)
  in
  (snap, panel)

let digest_of (r : Core.Enumerate.result) (s : Core.Explosion.summary) =
  let opt = function None -> "-" | Some v -> Printf.sprintf "%h" v in
  digest ~init:(digest (Core.Store_codec.encode_enumeration r))
    (Printf.sprintf "%d %b %s %s %s %s" s.Core.Explosion.n_arrivals s.Core.Explosion.delivered
       (opt s.Core.Explosion.t1) (opt s.Core.Explosion.optimal_duration) (opt s.Core.Explosion.tn)
       (opt s.Core.Explosion.te))

(* One pass over the panel: per message the enumeration, its explosion
   summary and the wall time of the two calls. *)
let rep cfg ~jobs ~sink snap panel =
  let config = enum_config cfg in
  T.with_span sink "parallel.fanout" (fun () ->
      Core.Parallel.map_traced ~jobs ~chunk:1 ~telemetry:sink
        (fun sink (src, dst, t_create) ->
          T.with_span sink "bench.task" (fun () ->
              let t0 = now () in
              let r =
                T.with_span sink "enumerate.run" (fun () ->
                    Core.Enumerate.run ~config snap ~src ~dst ~t_create)
              in
              let s =
                T.with_span sink "explosion.analyze" (fun () ->
                    Core.Explosion.analyze ~n_explosion:(k cfg) r)
              in
              (r, s, now () -. t0)))
        panel)

let run cfg =
  let ledger = Ledger.create () in
  let (snap, panel), first_setup =
    setup_once (fun () -> Ledger.traced_if cfg.traced ledger (fun sink -> setup cfg ~sink 0))
  in
  let between, setup_samples = spread_setups ~n:n_setups (fun i -> ignore (setup cfg ~sink:T.Sink.null i)) in
  let c = checks () in
  let m = Array.length panel in
  let first = ref [||] and first_times = ref [||] in
  let walls = ref [] and traced_walls = ref [] in
  let steps = ref 0 and arrivals = ref 0 and stopped = ref 0 in
  (* The first rep claims messages in study order; later reps claim the
     heaviest first (by the first rep's times). With a handful of
     messages costing 0.2 to 3 s each, that keeps a slow core from
     holding a heavy message at the end of the rep while the other
     idles. *)
  let order = ref (Array.init m Fun.id) in
  let one ~traced i =
    let ordered, wall =
      time (fun () ->
          Ledger.traced_if traced ledger (fun sink ->
              rep cfg ~jobs:cfg.jobs ~sink snap (Array.map (fun j -> panel.(j)) !order)))
    in
    let out = Array.copy ordered in
    Array.iteri (fun k j -> out.(j) <- ordered.(k)) !order;
    let digests = Array.map (fun (r, s, _) -> digest_of r s) out in
    if cfg.corrupt && i = 1 then digests.(0) <- Int64.logxor digests.(0) 1L;
    if traced then begin
      traced_walls := wall :: !traced_walls;
      Array.iter
        (fun ((r : Core.Enumerate.result), _, _) ->
          steps := !steps + r.Core.Enumerate.steps_processed;
          arrivals := !arrivals + Array.length r.Core.Enumerate.arrivals;
          if r.Core.Enumerate.stopped_early then incr stopped)
        out
    end
    else walls := wall :: !walls;
    if i = 0 then begin
      first := digests;
      first_times := Array.map (fun (_, _, dt) -> dt) out;
      Array.sort (fun a b -> Float.compare !first_times.(b) !first_times.(a)) !order;
      check_reference cfg c ~workload:name ~ops:m (combine digests)
    end
    else check_all c ~expected:!first digests
  in
  let phase = timed_phase cfg ~between one in
  (* jobs 1 against jobs nproc, on the cheaper half of the panel. *)
  let order = Array.init m Fun.id in
  Array.sort (fun a b -> Float.compare !first_times.(a) !first_times.(b)) order;
  let cheap = Array.sub order 0 ((m + 1) / 2) in
  let seq = rep cfg ~jobs:1 ~sink:T.Sink.null snap (Array.map (fun i -> panel.(i)) cheap) in
  Array.iteri (fun j (r, s, _) -> check c ~expected:!first.(cheap.(j)) (digest_of r s)) seq;
  let layers =
    if not cfg.traced then []
    else begin
      let n_traced = float_of_int (List.length !traced_walls) in
      let per_rep v = v /. n_traced in
      (* Each domain counts for the fan-out; the bench loop around it
         (collector, ledger, reordering) is uncovered time. *)
      let fanout = Ledger.total ledger "parallel.fanout" in
      let wall = sum !traced_walls in
      let domain_time = (float_of_int cfg.jobs *. fanout) +. (wall -. fanout) in
      let idle = (float_of_int cfg.jobs *. fanout) -. Ledger.total ledger "bench.task" in
      let covered = Ledger.self ledger "enumerate.run" +. Ledger.self ledger "explosion.analyze" +. idle in
      [
        ("generator.generate_s", median (Ledger.samples ledger "generator.generate"));
        ("trace_io.parse_s", median (Ledger.samples ledger "trace_io.load"));
        ("snapshot.calls", Ledger.calls ledger "snapshot.of_trace");
        ("snapshot.of_trace_ms_p50", Ledger.ms_quantile ledger "snapshot.of_trace" 0.5);
        ("snapshot.of_trace_ms_p90", Ledger.ms_quantile ledger "snapshot.of_trace" 0.9);
        ("enumerate.calls", per_rep (Ledger.calls ledger "enumerate.run"));
        ("enumerate.busy_s", per_rep (Ledger.total ledger "enumerate.run"));
        ("enumerate.call_ms_p50", Ledger.ms_quantile ledger "enumerate.run" 0.5);
        ("enumerate.call_ms_p90", Ledger.ms_quantile ledger "enumerate.run" 0.9);
        ("enumerate.steps", per_rep (float_of_int !steps));
        ("enumerate.arrivals", per_rep (float_of_int !arrivals));
        ("enumerate.stopped_early_ratio", Ledger.ratio (float_of_int !stopped) (n_traced *. float_of_int m));
        ("explosion.analyze_s", per_rep (Ledger.total ledger "explosion.analyze"));
        ("parallel.jobs", float_of_int cfg.jobs);
        ("parallel.idle_s", per_rep idle);
        ("trace.coverage", Ledger.ratio covered domain_time);
        ("trace.uncovered_ratio", 1. -. Ledger.ratio covered domain_time);
        ("trace.overhead_ratio", Ledger.ratio (median !traced_walls) (median !walls));
        ("kernel.snapshot_of_trace_ns", Kernels.snapshot_of_trace ~tiny:cfg.tiny);
        ("kernel.enumerate_k100_ns", Kernels.enumerate_k100 ~tiny:cfg.tiny);
      ]
    end
  in
  {
    setup_s = setup_time phase (first_setup :: setup_samples ());
    work_per_s = rate phase (List.rev_map (fun w -> (float_of_int m, w)) !walls);
    speed = median (Array.to_list phase.speed);
    run_jobs = cfg.jobs;
    reps = phase.reps;
    checks = c;
    digest = combine !first;
    layers;
  }
