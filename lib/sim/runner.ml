module T = Psn_telemetry.Telemetry
module Failpoint = Psn_robust.Failpoint
module Interrupt = Psn_robust.Interrupt

type run_spec = { workload : Workload.spec; seeds : int64 list }

let default_seeds k = List.init k (fun i -> Int64.of_int (1000 + i))

(* Each task owns its RNG (created from the task's seed) and its
   algorithm instance, so runs are independent and safe to fan out
   across domains; results come back in seed order either way. The
   schedule (the trace degraded by the sweep's fault plan, contact
   events sorted) is shared read-only: the engine never writes it, and
   fault verdicts are pure functions of (plan, key), so sharing cannot
   couple the runs. The scratch is the worker's: reused across the
   consecutive tasks of one domain, never shared between domains.

   The factory span nests inside the task span so algorithm
   construction is attributed to the task that paid for it in profile
   totals; the algorithm name (known only after the factory returns)
   is carried by the nested engine.run span. The failpoint site is
   keyed by the seed, so an injected failure schedule picks the same
   tasks whatever the claim order. *)
let run_seed ~schedule ~scratch ?(telemetry = T.Sink.null) ~trace ~spec ~factory seed =
  T.with_span telemetry "runner.task" ~args:[ ("seed", T.Str (Int64.to_string seed)) ]
  @@ fun () ->
  Failpoint.trigger ~key:seed "runner.task";
  T.count telemetry "runner.tasks" 1;
  let algorithm = T.with_span telemetry "runner.factory" (fun () -> factory trace) in
  let rng = Psn_prng.Rng.create ~seed () in
  let messages = Workload.generate ~rng spec.workload in
  let outcome = Engine.run_on ~scratch ~telemetry schedule ~messages algorithm in
  (* Per-run delivery-delay distribution: simulated time, recorded on
     this worker's track and bucket-merged at close — the histogram the
     paper's delay CDFs come from, schedule-independent by merge. *)
  Array.iter
    (fun r ->
      match Engine.delay r with
      | Some d -> T.hist telemetry "runner.delivery_delay_s" d
      | None -> ())
    outcome.Engine.records;
  outcome

(* Memoized fan-out over an arbitrary task grid, and the only one:
   every sweep goes through here, with or without a [cache]. The cache
   is only touched from the calling domain — all lookups happen before
   the parallel sections and all stores between and after them — so
   cache backends need no synchronisation and results are stitched
   back by index, keeping the bit-identical [jobs] contract regardless
   of the hit pattern. Without a cache every task is a miss and
   nothing is looked up, stored or counted.

   [checkpoint] splits the misses into rounds of that many tasks, in
   index order; each round's successes go to the cache before the next
   round starts, so a killed sweep resumes from its last completed
   round (the store replays the stored outcomes as hits). Because
   every task is a pure function of its inputs, the round size changes
   durability and wall time only, never a result.

   {!Psn_robust.Interrupt.check} is polled on entry (so an all-hit
   sweep still notices a signal), at the start of every task and after
   each round's successes are stored. A task started after a signal
   fails fast with [Interrupted]; the tasks that completed still reach
   the cache, and then [Interrupted] propagates.

   [compute] receives the worker environment and the sink of the
   domain that runs it, so buffers are reused across the domain's
   misses within a round and task spans land on the right trace
   track. [prepare] runs once, in this domain, before the first miss,
   and never on an all-hit sweep. *)
let cached_map_result ?jobs ?chunk ?(telemetry = T.Sink.null) ?(checkpoint = 0) ?(prefix = "runner") ?(prepare = ignore) ?cache ~env ~compute tasks =
  if checkpoint < 0 then invalid_arg "Runner.cached_map_result: checkpoint must be >= 0";
  Interrupt.check ();
  let n = Array.length tasks in
  let results =
    match cache with
    | None -> Array.make n None
    | Some (find, _) ->
      T.with_span telemetry (prefix ^ ".cache_lookup") (fun () -> Array.map find tasks)
      |> Array.map (Option.map Result.ok)
  in
  let miss_idx =
    Array.of_list (List.filter (fun i -> Option.is_none results.(i)) (List.init n Fun.id))
  in
  let m = Array.length miss_idx in
  if Option.is_some cache then begin
    T.count telemetry (prefix ^ ".cache_hits") (n - m);
    T.count telemetry (prefix ^ ".cache_misses") m
  end;
  if m > 0 then prepare ();
  let round_size = if checkpoint = 0 then Int.max 1 m else checkpoint in
  let pos = ref 0 in
  while !pos < m do
    let stop = Int.min m (!pos + round_size) in
    let batch = Array.sub miss_idx !pos (stop - !pos) in
    let computed =
      Parallel.map_result ?jobs ?chunk ~telemetry ~env
        (fun e sink i ->
          Interrupt.check ();
          compute e sink tasks.(i))
        batch
    in
    Option.iter
      (fun (_, store) ->
        T.with_span telemetry (prefix ^ ".cache_store") (fun () ->
            Array.iteri
              (fun j i ->
                match computed.(j) with Ok v -> store tasks.(i) v | Error (_ : exn) -> ())
              batch))
      cache;
    Array.iteri (fun j i -> results.(i) <- Some computed.(j)) batch;
    if checkpoint > 0 then T.count telemetry (prefix ^ ".checkpoints") 1;
    Interrupt.check ();
    pos := stop
  done;
  Array.map (function Some r -> r | None -> assert false) results

let outcomes_many_result ?jobs ?chunk ?faults ?stores ?checkpoint
    ?(telemetry = T.Sink.null) ~trace ~spec ~factories () =
  if List.is_empty spec.seeds then invalid_arg "Runner: need at least one seed";
  let seeds = Array.of_list spec.seeds in
  let facs = Array.of_list factories in
  let n_seeds = Array.length seeds in
  let cache =
    Option.map
      (fun cs ->
        if List.length cs <> Array.length facs then
          invalid_arg "Runner: need one cache per factory";
        let caches = Array.of_list cs in
        ( (fun (fi, seed) -> caches.(fi).Cache.find ~seed),
          fun (fi, seed) outcome -> caches.(fi).Cache.store ~seed outcome ))
      stores
  in
  (* Flatten the (factory, seed) grid into one task array so a few slow
     algorithms cannot leave workers idle, then regroup by factory. *)
  let tasks =
    Array.init
      (Array.length facs * n_seeds)
      (fun i -> (i / n_seeds, seeds.(i mod n_seeds)))
  in
  (* One schedule per sweep, forced in this domain before any task
     runs (workers only read the forced value), and never on a sweep
     whose every task hits the cache: a warm replay sorts nothing. *)
  let schedule = lazy (Engine.prepare ?faults ~telemetry trace) in
  let cells =
    cached_map_result ?jobs ?chunk ~telemetry ?checkpoint
      ~prepare:(fun () -> ignore (Lazy.force schedule : Engine.schedule))
      ?cache ~env:Engine.scratch
      ~compute:(fun scratch sink (fi, seed) ->
        run_seed ~schedule:(Lazy.force schedule) ~scratch ~telemetry:sink ~trace ~spec
          ~factory:facs.(fi) seed)
      tasks
  in
  List.init (Array.length facs) (fun fi ->
      List.init n_seeds (fun si -> cells.((fi * n_seeds) + si)))

(* Factory-major, seed-minor is the flat task order, so the first
   [Error] met walking the grid is the lowest-index failure that
   {!Parallel.join_results} would re-raise. *)
let outcomes_many ?jobs ?chunk ?faults ?stores ?checkpoint ?telemetry ~trace
    ~spec ~factories () =
  let grid =
    outcomes_many_result ?jobs ?chunk ?faults ?stores ?checkpoint ?telemetry ~trace
      ~spec ~factories ()
  in
  List.iter (List.iter (function Error e -> raise e | Ok _ -> ())) grid;
  List.map (List.map Result.get_ok) grid
