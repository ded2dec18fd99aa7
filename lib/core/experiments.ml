module Trace = Psn_trace.Trace
module Contact = Psn_trace.Contact
module Dataset = Psn_trace.Dataset
module Snapshot = Psn_spacetime.Snapshot
module Enumerate = Psn_paths.Enumerate
module Explosion = Psn_paths.Explosion
module Path = Psn_paths.Path
module Rng = Psn_prng.Rng
module Cdf = Psn_stats.Cdf
module Registry = Psn_forwarding.Registry
module Engine = Psn_sim.Engine
module Metrics = Psn_sim.Metrics
module Message = Psn_sim.Message
module Workload = Psn_sim.Workload
module Parallel = Psn_sim.Parallel
module Runner = Psn_sim.Runner
module Faults = Psn_sim.Faults
module Failpoint = Psn_robust.Failpoint
module Store = Psn_store.Store
module Store_key = Psn_store.Key
module Store_memo = Psn_store.Memo
module T = Psn_telemetry.Telemetry

type scale = {
  n_messages : int;
  k : int;
  seeds : int;
  hop_paths_per_message : int;
  rng_seed : int64;
}

let default_scale =
  { n_messages = 120; k = 2000; seeds = 3; hop_paths_per_message = 200; rng_seed = 17L }

let paper_scale =
  { n_messages = 1800; k = 2000; seeds = 10; hop_paths_per_message = 500; rng_seed = 17L }

type message_result = {
  src : Psn_trace.Node.id;
  dst : Psn_trace.Node.id;
  t_create : float;
  pair : Classify.pair_type;
  summary : Explosion.summary;
  arrival_times : float array;
  sample_paths : Path.t list;
}

type input = { name : string; label : string; seed : int64; trace : Trace.t }

let of_dataset (d : Dataset.t) =
  { name = d.name; label = d.label; seed = d.seed; trace = Dataset.generate d }

type study = { input : input; classify : Classify.t; messages : message_result list }

(* Messages are generated over the first two thirds of the window (the
   paper's "first 2 hours of 3") so each has time to be delivered. *)
let generation_window trace = Trace.horizon trace *. 2. /. 3.

let paper_workload trace =
  {
    (Workload.paper_spec ~n_nodes:(Trace.n_nodes trace)) with
    Workload.t_end = generation_window trace;
  }

let random_message rng trace =
  let n = Trace.n_nodes trace in
  let src = Rng.int rng n in
  let dst =
    let r = Rng.int rng (n - 1) in
    if r >= src then r + 1 else r
  in
  (src, dst, Rng.float rng (generation_window trace))

type exec = {
  jobs : int option;
  chunk : int option;
  store : Store.t option;
  checkpoint : int;
  telemetry : T.sink;
}

let default_exec =
  { jobs = None; chunk = None; store = None; checkpoint = 0; telemetry = T.Sink.null }

(* The enumeration fan-out, through the runner's one sweep path
   ({!Runner.cached_map_result}): memoized when a store is given —
   touched only from the calling domain, finds before, puts between and
   after the parallel rounds — so a warm store changes wall time, never
   results, and a killed sweep resumes from its last completed round. *)
let enumerate ?(exec = default_exec) ~trace ~config snap specs =
  let { jobs; chunk; store; checkpoint; telemetry } = exec in
  let compute () sink (src, dst, t_create) =
    T.with_span sink "paths.enumerate"
      ~args:[ ("src", T.Int src); ("dst", T.Int dst) ]
      (fun () -> Enumerate.run ~config snap ~src ~dst ~t_create)
  in
  let cache =
    Option.map
      (fun st ->
        let trace_hash = Store_key.trace_hash trace in
        let key (src, dst, t_create) =
          Store_key.enumeration ~trace_hash ~config ~src ~dst ~t_create
        in
        ( (fun s -> Store.find_enumeration st (key s)),
          fun s v -> Store.put_enumeration st (key s) v ))
      store
  in
  T.count telemetry "paths.enumerations" (Array.length specs);
  Parallel.join_results
    (Runner.cached_map_result ?jobs ?chunk ~telemetry ~checkpoint ~prefix:"paths"
       ?cache
       ~env:(fun () -> ())
       ~compute specs)

let enumeration_study ?(exec = default_exec) ?(scale = default_scale) input =
  let telemetry = exec.telemetry in
  T.with_span telemetry "experiments.enumeration_study" ~args:[ ("dataset", T.Str input.label) ]
  @@ fun () ->
  T.begin_span telemetry "experiments.setup";
  let trace = input.trace in
  let classify = Classify.of_trace trace in
  let snap = Snapshot.of_trace trace in
  let rng = Rng.create ~seed:(Int64.logxor scale.rng_seed input.seed) () in
  let config =
    { Enumerate.k = scale.k; max_hops = None; stop_at_total = Some scale.k; exhaustive = false }
  in
  (* All RNG draws happen here, sequentially and in message order; the
     per-pair enumerations below are then pure functions of their spec,
     so fanning them across domains cannot change any result. *)
  let specs = Array.make scale.n_messages (0, 0, 0.) in
  for i = 0 to scale.n_messages - 1 do
    specs.(i) <- random_message rng trace
  done;
  T.end_span telemetry;
  let results = enumerate ~exec ~trace ~config snap specs in
  T.with_span telemetry "experiments.collect"
  @@ fun () ->
  (* Post-processing is cheap and pure, so only the enumeration itself
     goes through the parallel (and memoized) fan-out above. *)
  let messages =
    List.init scale.n_messages (fun i ->
        let src, dst, t_create = specs.(i) in
        let result = results.(i) in
        let sample_paths =
          Array.to_list result.Enumerate.arrivals
          |> List.filteri (fun i _ -> i < scale.hop_paths_per_message)
          |> List.map (fun (a : Enumerate.arrival) -> a.Enumerate.path)
        in
        {
          src;
          dst;
          t_create;
          pair = Classify.pair_type classify ~src ~dst;
          summary = Explosion.analyze ~n_explosion:scale.k result;
          arrival_times = Enumerate.arrival_times result;
          sample_paths;
        })
  in
  { input; classify; messages }

(* ---- Figures 1-8, 11, 14, 15 ---- *)

let fig1 inputs =
  List.map (fun i -> (i.label, Trace.contact_time_series i.trace ~bin:60.)) inputs

let fig2 () =
  (* The paper's worked example: nodes 1-2 in contact during the first
     step; all three pairwise in contact during the second. *)
  let contacts =
    [
      Contact.make ~a:0 ~b:1 ~t_start:0. ~t_end:9.;
      Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:19.;
      Contact.make ~a:1 ~b:2 ~t_start:10. ~t_end:19.;
      Contact.make ~a:0 ~b:2 ~t_start:10. ~t_end:19.;
    ]
  in
  let snap = Snapshot.of_trace (Trace.create ~n_nodes:3 ~horizon:20. contacts) in
  let step_line step =
    Snapshot.edges snap ~step
    |> List.map (fun (a, b) -> Printf.sprintf " %d-%d" a b)
    |> String.concat ""
    |> Printf.sprintf "t=%d:%s\n" step
  in
  Printf.sprintf "space-time graph: %d nodes x %d steps (delta=%g s)\n" (Snapshot.n_nodes snap)
    (Snapshot.n_steps snap)
    (Psn_spacetime.Timegrid.delta (Snapshot.grid snap))
  ^ String.concat "" (List.map step_line (Snapshot.active_steps snap))

let durations study =
  List.filter_map (fun m -> m.summary.Explosion.optimal_duration) study.messages

let explosion_times study = List.filter_map (fun m -> m.summary.Explosion.te) study.messages

let label_of study = study.input.label

let cdf_of_list values =
  match values with [] -> None | vs -> Some (Cdf.of_samples (Array.of_list vs))

let fig4a studies =
  List.filter_map
    (fun s -> Option.map (fun c -> (label_of s, c)) (cdf_of_list (durations s)))
    studies

let fig4b studies =
  List.filter_map
    (fun s -> Option.map (fun c -> (label_of s, c)) (cdf_of_list (explosion_times s)))
    studies

let fig5 study =
  List.filter_map
    (fun m ->
      match (m.summary.Explosion.optimal_duration, m.summary.Explosion.te) with
      | Some d, Some te -> Some (d, te)
      | _, _ -> None)
    study.messages

(* The paper's slow cases: TE of at least 150 s, arrivals binned at
   10 s over the 300 s after T1. *)
let fig6 study =
  let offsets =
    study.messages
    |> List.filter (fun m ->
           match m.summary.Explosion.te with Some te -> te >= 150. | None -> false)
    |> List.concat_map (fun m ->
           match Array.length m.arrival_times with
           | 0 -> []
           | _ ->
             let t1 = m.arrival_times.(0) in
             Array.to_list m.arrival_times |> List.map (fun t -> t -. t1))
  in
  Psn_stats.Histogram.create ~lo:0. ~hi:300. ~bins:30
    (List.to_seq offsets)

let fig7 inputs =
  List.map
    (fun i -> (i.label, Cdf.of_samples (Array.map float_of_int (Trace.contact_counts i.trace))))
    inputs

let fig8 study =
  let points = Hashtbl.create 4 in
  List.iter
    (fun m ->
      match (m.summary.Explosion.optimal_duration, m.summary.Explosion.te) with
      | Some d, Some te ->
        let existing = Option.value ~default:[] (Hashtbl.find_opt points m.pair) in
        Hashtbl.replace points m.pair ((d, te) :: existing)
      | _, _ -> ())
    study.messages;
  List.map
    (fun pair -> (pair, List.rev (Option.value ~default:[] (Hashtbl.find_opt points pair))))
    Classify.all_pair_types

let fig11 study =
  let all_times =
    List.concat_map (fun m -> Array.to_list m.arrival_times) study.messages
    |> List.sort Float.compare
  in
  let series =
    Psn_stats.Timeseries.bin_events ~t0:0. ~t1:(Trace.horizon study.input.trace) ~bin:60.
      (List.to_seq all_times)
  in
  Psn_stats.Timeseries.cumulative series

let pooled_paths study = List.concat_map (fun m -> m.sample_paths) study.messages

let fig14 study = Hops.mean_rates_by_hop study.classify (pooled_paths study)

let fig15 study = Hops.rate_ratios_by_hop study.classify (pooled_paths study)

(* ---- Simulation studies (Figs. 9, 10, 12, 13) ---- *)

type sim_study = {
  sim_classify : Classify.t;
  runs : (Registry.entry * Engine.outcome list) list;
  sim_failed : (string * int64 * string) list;
}

(* One store-backed outcome cache per algorithm. Keys use the entry's
   stable registry [name] (never the display label, never anything the
   factory computes), so a warm store answers without constructing the
   algorithm at all. *)
let entry_caches store ~trace ?faults ~workload entries =
  let trace_hash = Store_key.trace_hash trace in
  List.map
    (fun (e : Registry.entry) ->
      Store_memo.runner_cache ~store ~trace_hash ~workload ?faults
        ~algo:e.Registry.name ())
    entries

let sim_study ?(exec = default_exec) ?(scale = default_scale) ?faults input entries =
  let { jobs; chunk; store; checkpoint; telemetry } = exec in
  T.with_span telemetry "experiments.sim_study" ~args:[ ("dataset", T.Str input.label) ]
  @@ fun () ->
  T.begin_span telemetry "experiments.setup";
  let trace = input.trace in
  let workload = paper_workload trace in
  let seeds = Runner.default_seeds scale.seeds in
  let plan =
    Option.map
      (Faults.compile ~n_nodes:(Trace.n_nodes trace) ~horizon:(Trace.horizon trace))
      faults
  in
  let stores = Option.map (fun st -> entry_caches st ~trace ?faults ~workload entries) store in
  T.end_span telemetry;
  (* One parallel batch over the whole algorithm × seed grid; a failed
     (algorithm, seed) cell costs one cell of the study, never the
     study. *)
  let cells =
    Runner.outcomes_many_result ?jobs ?chunk ?faults:plan ?stores ~checkpoint
      ~telemetry ~trace ~spec:{ Runner.workload; seeds }
      ~factories:(List.map (fun (e : Registry.entry) -> e.Registry.factory) entries)
      ()
  in
  (* Failed cells, flattened for reports: (algorithm label, seed, what
     went wrong), in (algorithm, seed) order. *)
  let failed (e : Registry.entry) cell_list =
    List.concat
      (List.map2
         (fun seed -> function
           | Ok (_ : Engine.outcome) -> []
           | Error ex -> [ (e.Registry.label, seed, Failpoint.describe ex) ])
         seeds cell_list)
  in
  {
    sim_classify = Classify.of_trace trace;
    runs =
      List.map2 (fun e cell_list -> (e, List.filter_map Result.to_option cell_list)) entries cells;
    sim_failed = List.concat (List.map2 failed entries cells);
  }

let fig9 study =
  (* An algorithm whose every seed failed has nothing to pool; its
     absence (with the reason in [sim_failed]) is the honest row. *)
  List.filter_map
    (fun ((e : Registry.entry), outcomes) ->
      match outcomes with
      | [] -> None
      | outcomes -> Some (e.Registry.label, Metrics.pool outcomes))
    study.runs

let fig10 study =
  List.filter_map
    (fun ((e : Registry.entry), outcomes) ->
      let delays = List.concat_map (fun o -> Array.to_list (Metrics.delays o)) outcomes in
      Option.map (fun c -> (e.Registry.label, c)) (cdf_of_list delays))
    study.runs

(* Pool records from all seeds into one outcome so grouped metrics see
   the full sample; total copies is the sum, consistent with records. *)
let pooled_outcome (e : Registry.entry) outcomes =
  let records = List.concat_map (fun o -> Array.to_list o.Engine.records) outcomes in
  let copies = List.fold_left (fun acc (o : Engine.outcome) -> acc + o.Engine.copies) 0 outcomes in
  let attempts =
    List.fold_left (fun acc (o : Engine.outcome) -> acc + o.Engine.attempts) 0 outcomes
  in
  { Engine.algorithm = e.Registry.label; records = Array.of_list records; copies; attempts }

let fig13 study =
  let grouped_by_algorithm =
    (* As in [fig9], all-failed algorithms drop out rather than
       rendering as a fake all-zero column. *)
    study.runs
    |> List.filter (fun ((_ : Registry.entry), outcomes) -> not (List.is_empty outcomes))
    |> List.map (fun (e, outcomes) ->
           let outcome = pooled_outcome e outcomes in
           let groups =
             Metrics.grouped outcome ~cmp:Classify.compare_pair_type
               ~classify:(fun (m : Message.t) ->
                 Classify.pair_type study.sim_classify ~src:m.Message.src
                   ~dst:m.Message.dst)
           in
           (e, groups))
  in
  List.map
    (fun pair ->
      let row =
        List.map
          (fun ((e : Registry.entry), groups) ->
            let metrics =
              match List.find_opt (fun (p, _) -> Classify.equal_pair_type p pair) groups with
              | Some (_, m) -> m
              | None ->
                {
                  Metrics.algorithm = e.Registry.label;
                  messages = 0;
                  delivered = 0;
                  success_rate = 0.;
                  mean_delay = Float.nan;
                  median_delay = Float.nan;
                  copies = 0;
                  attempts = 0;
                }
            in
            (e.Registry.label, metrics))
          grouped_by_algorithm
      in
      (pair, row))
    Classify.all_pair_types

type fig12_example = {
  ex_src : Psn_trace.Node.id;
  ex_dst : Psn_trace.Node.id;
  ex_t_create : float;
  ex_t1 : float;
  arrival_offsets : float list;
  algorithm_offsets : (string * float option) list;
}

let fig12 study ~n_examples =
  (* Interesting examples: delivered, with a spread-out explosion. *)
  let candidates =
    study.messages
    |> List.filter (fun m ->
           m.summary.Explosion.delivered
           && Array.length m.arrival_times >= 100
           &&
           match m.summary.Explosion.te with Some te -> te >= 20. | None -> false)
  in
  let chosen = List.filteri (fun i _ -> i < n_examples) candidates in
  (* Every (example, algorithm) run replays the same trace: sort it once. *)
  let trace = study.input.trace in
  let schedule = Engine.prepare trace in
  List.map
    (fun m ->
      let t1 = m.arrival_times.(0) in
      let message = Message.make ~id:0 ~src:m.src ~dst:m.dst ~t_create:m.t_create in
      let algorithm_offsets =
        List.map
          (fun (e : Registry.entry) ->
            let outcome =
              Engine.run_on schedule ~messages:[ message ] (e.Registry.factory trace)
            in
            let delivered = outcome.Engine.records.(0).Engine.delivered in
            (e.Registry.label, Option.map (fun t -> t -. t1) delivered))
          Registry.paper_six
      in
      {
        ex_src = m.src;
        ex_dst = m.dst;
        ex_t_create = m.t_create;
        ex_t1 = t1;
        arrival_offsets = Array.to_list m.arrival_times |> List.map (fun t -> t -. t1);
        algorithm_offsets;
      })
    chosen

(* ---- Resilience study (fault injection) ---- *)

type resilience_level = {
  res_intensity : float;
  res_spec : Faults.spec;
  res_sim : sim_study;
  res_survival : Psn_paths.Explosion.survival list;
}

(* At intensity 1: 20% of transfers lost, ~1.7 crashes per node over a
   3 h window (5 min mean repair), up to 30% of each contact truncated
   — a hostile venue, yet far from partitioning the contact graph. *)
let default_fault_spec =
  { Faults.loss = 0.2; crash_rate = 2. /. 3600.; down_time = 300.; jitter = 0.3; seed = 99L }

(* The intensity ladder and the number of path-survival probes. *)
let intensities = [ 0.; 0.5; 1.; 2. ]
let path_messages = 30

let resilience_study ?(exec = default_exec) ?(scale = default_scale)
    ?(base = default_fault_spec) input =
  let telemetry = exec.telemetry in
  T.with_span telemetry "experiments.resilience_study" ~args:[ ("dataset", T.Str input.label) ]
  @@ fun () ->
  (match Faults.validate base with
  | Error msg -> invalid_arg ("Experiments.resilience_study: " ^ msg)
  | Ok () -> ());
  let trace = input.trace in
  (* Path-survival probes: the same message specs are enumerated on the
     pristine trace once and on every degraded trace, so each level's
     survival is a paired comparison. All RNG draws happen up front. *)
  let probes =
    let rng = Rng.create ~seed:(Int64.logxor 0x5245534cL (Int64.logxor scale.rng_seed input.seed)) () in
    Array.init path_messages (fun _ -> random_message rng trace)
  in
  let config =
    { Enumerate.k = scale.k; max_hops = None; stop_at_total = Some scale.k; exhaustive = false }
  in
  (* Both the pristine baseline and every degraded level go through the
     memoized fan-out; degraded levels key on the degraded trace's own
     content hash, so levels never alias each other or the baseline. *)
  let enumerate_all tr = enumerate ~exec ~trace:tr ~config (Snapshot.of_trace tr) probes in
  let baseline =
    T.with_span telemetry "experiments.baseline" (fun () -> enumerate_all trace)
  in
  List.map
    (fun intensity ->
      T.with_span telemetry "experiments.level"
        ~args:[ ("intensity", T.Float intensity) ]
      @@ fun () ->
      let level_spec = Faults.scale intensity base in
      let sim = sim_study ~exec ~scale ~faults:level_spec input Registry.paper_six in
      let plan =
        Faults.compile ~n_nodes:(Trace.n_nodes trace) ~horizon:(Trace.horizon trace) level_spec
      in
      let degraded = enumerate_all (Faults.degrade plan trace) in
      let survival =
        List.init path_messages (fun i ->
            Psn_paths.Explosion.survival ~baseline:baseline.(i) ~degraded:degraded.(i))
      in
      { res_intensity = intensity; res_spec = level_spec; res_sim = sim; res_survival = survival })
    intensities

(* ---- Analytic-model tables ---- *)

type model_row = { m_time : float; m_closed : float; m_ode : float; m_mc : float }

(* ODE truncated at k = 400, Monte Carlo from seed 5. *)
let model_table ~n ~lambda ~times ~runs ~closed ~of_density ~of_sample =
  let p = { Psn_model.Homogeneous.n; lambda } in
  let rng = Rng.create ~seed:5L () in
  let samples =
    Psn_model.Montecarlo.average_runs p ~rng ~runs ~sample_times:times
  in
  List.map2
    (fun t sample ->
      let density = Psn_model.Homogeneous.density_at p ~k_max:400 ~t in
      { m_time = t; m_closed = closed p t; m_ode = of_density density; m_mc = of_sample sample })
    (List.sort Float.compare times)
    samples

let model_mean_table ~n ~lambda ~times ~runs =
  model_table ~n ~lambda ~times ~runs
    ~closed:(fun p t -> Psn_model.Homogeneous.mean_paths p ~t)
    ~of_density:Psn_model.Homogeneous.mean_of_density
    ~of_sample:(fun s -> s.Psn_model.Montecarlo.mean)

let second_moment_of_density u =
  let acc = ref 0. in
  Array.iteri (fun k uk -> acc := !acc +. (float_of_int (k * k) *. uk)) u;
  !acc

let model_second_moment_table ~n ~lambda ~times ~runs =
  model_table ~n ~lambda ~times ~runs
    ~closed:(fun p t -> Psn_model.Homogeneous.second_moment p ~t)
    ~of_density:second_moment_of_density
    ~of_sample:(fun s -> s.Psn_model.Montecarlo.second_moment)

let model_blowup_table ~n ~lambda ~xs =
  let p = { Psn_model.Homogeneous.n; lambda } in
  List.map (fun x -> (x, Psn_model.Homogeneous.blowup_time p ~x)) xs

let model_quadrant_table () =
  let classes =
    { Psn_model.Inhomogeneous.n = 98; frac_high = 0.5; rate_high = 0.03; rate_low = 0.005 }
  in
  Psn_model.Inhomogeneous.simulate classes ~rng:(Rng.create ~seed:11L ())
    ~messages_per_quadrant:60 ~n_explosion:2000 ~t_end:10800.
