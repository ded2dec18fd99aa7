(* store-replay: set-up runs the sim-fig9 grid cold on infocom06_am into
   a fresh store through Store_memo.runner_cache; each rep then replays
   it warm through Runner.outcomes_many ~stores, the path a second
   `psn experiment fig9 --store DIR` takes. Every hit decodes a frame
   and rewrites the whole manifest, so the store holds hundreds of
   entries, as a real sweep's store would. The engine does no work. *)

open Util
module T = Core.Telemetry

let name = "store-replay"

(* Extra set-ups per untraced run: each runs the cold grid, about 8 s,
   long enough to smooth the machine's drift by itself. *)
let n_setups = 2
let dataset = Core.Dataset.infocom06_am
let entries = Core.Registry.paper_six
let n_seeds cfg = if cfg.tiny then 2 else 34

(* The cache wrappers time every lookup and insert into the sink of the
   current phase, and count hits and misses. *)
type probe = { mutable sink : T.sink; mutable hits : int; mutable misses : int }

let wrap probe (cache : Core.Cache.t) =
  {
    Core.Cache.find =
      (fun ~seed ->
        let v = T.with_span probe.sink "store.find" (fun () -> cache.Core.Cache.find ~seed) in
        (match v with Some _ -> probe.hits <- probe.hits + 1 | None -> probe.misses <- probe.misses + 1);
        v);
    store = (fun ~seed o -> T.with_span probe.sink "store.insert" (fun () -> cache.Core.Cache.store ~seed o));
  }

type state = {
  trace : Core.Trace.t;
  spec : Core.Runner.run_spec;
  store : Core.Store.t;
  dir : string;
  caches : Core.Cache.t list;
  cold : int64 array;
}

let factories = List.map (fun (e : Core.Registry.entry) -> e.Core.Registry.factory) entries

let digests outs =
  Array.of_list (List.concat_map (List.map (fun o -> digest (Core.Store_codec.encode_outcome o))) outs)

let setup cfg probe ~sink i =
  probe.sink <- sink;
  let trace, _ = dataset_trace ~sink ~seed:cfg.seed dataset in
  let workload = Core.Workload.paper_spec ~n_nodes:(Core.Trace.n_nodes trace) in
  let spec =
    { Core.Runner.workload; seeds = List.init (n_seeds cfg) (fun j -> sub_seed cfg.seed (Printf.sprintf "store/%d" j)) }
  in
  let dir = Filename.concat cfg.work (Printf.sprintf "store-%d" i) in
  let store = Core.Store.open_ ~dir () in
  let trace_hash = Core.Store_key.trace_hash trace in
  let caches =
    List.map
      (fun (e : Core.Registry.entry) ->
        wrap probe (Core.Store_memo.runner_cache ~store ~trace_hash ~workload ~algo:e.Core.Registry.name ()))
      entries
  in
  let cold = Core.Runner.outcomes_many ~jobs:cfg.jobs ~stores:caches ~trace ~spec ~factories () in
  { trace; spec; store; dir; caches; cold = digests cold }

(* The entry frames of a store directory, by path. *)
let frames dir =
  let rec walk d acc =
    Array.fold_left
      (fun acc e ->
        let p = Filename.concat d e in
        if Sys.is_directory p then walk p acc
        else if Filename.check_suffix e ".psn" && String.length e = 20 then p :: acc
        else acc)
      acc (Sys.readdir d)
  in
  List.sort String.compare (walk dir [])

(* Flip one byte in the middle of one stored frame. *)
let corrupt_one_frame dir =
  match frames dir with
  | [] -> ()
  | p :: _ ->
    let data = Bytes.of_string (In_channel.with_open_bin p In_channel.input_all) in
    let i = Bytes.length data / 2 in
    Bytes.set data i (Char.chr (Char.code (Bytes.get data i) lxor 0xff));
    Out_channel.with_open_bin p (fun oc -> Out_channel.output_bytes oc data)

let rep ~jobs ~sink st =
  let outs =
    T.with_span sink "parallel.fanout" (fun () ->
        Core.Runner.outcomes_many ~jobs ~stores:st.caches ~telemetry:sink ~trace:st.trace ~spec:st.spec
          ~factories ())
  in
  let rows =
    T.with_span sink "runner.metrics" (fun () ->
        List.map (fun o -> T.with_span sink "metrics.pool" (fun () -> Core.Metrics.pool o)) outs)
  in
  (outs, rows)

let run cfg =
  let ledger = Ledger.create () and setup_ledger = Ledger.create () in
  let probe = { sink = T.Sink.null; hits = 0; misses = 0 } in
  let st, first_setup =
    setup_once (fun () -> Ledger.traced_if cfg.traced setup_ledger (fun sink -> setup cfg probe ~sink 0))
  in
  probe.sink <- T.Sink.null;
  let between, setup_samples = spread_setups ~n:n_setups (fun i -> rm_rf (setup cfg probe ~sink:T.Sink.null i).dir) in
  if cfg.corrupt then corrupt_one_frame st.dir;
  let c = checks () in
  let walls = ref [] and traced_walls = ref [] in
  let hits_per_rep = ref [] and total_hits = ref 0 and total_misses = ref 0 in
  (* One replay, counting hits and misses in [probe]. *)
  let replay ~jobs ~sink =
    probe.hits <- 0;
    probe.misses <- 0;
    probe.sink <- sink;
    let outs, _ = rep ~jobs ~sink st in
    probe.sink <- T.Sink.null;
    outs
  in
  (* A warm miss is a failed operation, whatever it recomputed. *)
  let check outs =
    c.attempted <- c.attempted + probe.misses;
    c.failed <- c.failed + probe.misses;
    check_all c ~expected:st.cold (digests outs)
  in
  let one ~traced i =
    let outs, wall = time (fun () -> Ledger.traced_if traced ledger (fun sink -> replay ~jobs:cfg.jobs ~sink)) in
    check outs;
    if i = 0 then check_reference cfg c ~workload:name ~ops:(Array.length st.cold) (combine st.cold);
    hits_per_rep := float_of_int probe.hits :: !hits_per_rep;
    total_hits := !total_hits + probe.hits;
    total_misses := !total_misses + probe.misses;
    if traced then traced_walls := wall :: !traced_walls else walls := (float_of_int probe.hits, wall) :: !walls
  in
  let phase = timed_phase cfg ~between one in
  (* jobs 1 against jobs nproc. *)
  check (replay ~jobs:1 ~sink:T.Sink.null);
  let stats = Core.Store.stats st.store in
  let manifest_bytes =
    let p = Filename.concat st.dir "manifest.psn" in
    if Sys.file_exists p then float_of_int (In_channel.with_open_bin p In_channel.length |> Int64.to_int)
    else 0.
  in
  let decode_samples =
    if not cfg.traced then []
    else
      List.filteri (fun i _ -> i < 64) (frames st.dir)
      |> List.map (fun p ->
             let data = In_channel.with_open_bin p In_channel.input_all in
             snd (time (fun () -> ignore (Core.Store_codec.decode_outcome data))))
  in
  let fsck = Core.Store.verify st.store in
  c.attempted <- c.attempted + fsck.Core.Store.checked;
  c.failed <- c.failed + List.length fsck.Core.Store.fsck_errors;
  rm_rf st.dir;
  let layers =
    if not cfg.traced then []
    else begin
      let n_traced = float_of_int (List.length !traced_walls) in
      let per_rep v = v /. n_traced in
      let wall = sum !traced_walls in
      let layer_spans = [ "store.find"; "runner.cache_lookup"; "runner.metrics"; "metrics.pool" ] in
      let covered = sum (List.map (Ledger.self ledger) layer_spans) in
      let hits = float_of_int !total_hits and misses = float_of_int !total_misses in
      [
        ("generator.generate_s", Ledger.total setup_ledger "generator.generate");
        ("store.lookup_ms_p50", Ledger.ms_quantile ledger "store.find" 0.5);
        ("store.lookup_ms_p90", Ledger.ms_quantile ledger "store.find" 0.9);
        ("store.insert_ms_p50", Ledger.ms_quantile setup_ledger "store.insert" 0.5);
        ("store.hits", median !hits_per_rep);
        ("store.misses", misses /. float_of_int phase.reps);
        ("store.hit_ratio", Ledger.ratio hits (hits +. misses));
        ("store.entries", float_of_int stats.Core.Store.entries);
        ("store.manifest_bytes", manifest_bytes);
        ("codec.decode_outcome_ms_p50", ms (median decode_samples));
        ("runner.metrics_s", per_rep (Ledger.total ledger "runner.metrics"));
        ("runner.task_self_s", per_rep (Ledger.self ledger "runner.cache_lookup"));
        ("metrics.pool_s", per_rep (Ledger.total ledger "metrics.pool"));
        ("parallel.jobs", float_of_int cfg.jobs);
        ("trace.coverage", Ledger.ratio covered wall);
        ("trace.uncovered_ratio", 1. -. Ledger.ratio covered wall);
        ("trace.overhead_ratio", Ledger.ratio (median !traced_walls) (median (List.map snd !walls)));
      ]
    end
  in
  {
    setup_s = setup_time phase (first_setup :: setup_samples ());
    work_per_s = rate phase (List.rev !walls);
    speed = median (Array.to_list phase.speed);
    run_jobs = cfg.jobs;
    reps = phase.reps;
    checks = c;
    digest = combine st.cold;
    layers;
  }
