(** Multi-seed experiment runner.

    The paper averages every forwarding result over 10 simulation runs;
    this module regenerates the workload per seed and runs a grid of
    algorithms over those seeds. It has three entry points:
    {!outcomes_many} returns the per-seed outcomes of every algorithm
    and re-raises a failed run, {!outcomes_many_result} isolates each
    failed run in its own cell, and {!cached_map_result} is the
    memoized, checkpointed, interruptible fan-out both are built on,
    exported for other sweep layers. Callers that want one algorithm
    pass a one-element factory list; callers that want the paper's
    averaged numbers pool the outcomes with {!Metrics.pool}.

    The grid entry points take [?jobs] and [?chunk]: the whole
    algorithm × seed grid is fanned across that many domains through
    {!Parallel}, claimed in index ranges of [chunk] tasks. Each run owns
    its RNG and algorithm state and results are keyed by input index,
    so any [jobs] × [chunk] combination produces bit-identical output —
    scheduling only changes wall time. Defaults to
    {!Parallel.default_jobs} and {!Parallel}'s chunk heuristic. Each
    worker domain also owns one {!Engine.scratch}, reused across the
    consecutive runs it executes, which cuts the per-seed buffer
    allocation without coupling the runs (see {!Engine.type-scratch}
    for why reuse cannot leak state).

    They also take [?faults]: a compiled {!Faults.plan} applied
    identically to every run of the batch. Fault verdicts are pure
    functions of the plan and the faulted entity, so faulted sweeps keep
    the bit-identical [jobs] contract. The trace is degraded and its
    contact events sorted once per sweep ({!Engine.prepare}, in the
    calling domain, and only when some run misses the cache); every run
    shares that schedule read-only. A plan whose population differs
    from the trace's therefore raises [Invalid_argument] from the sweep
    itself, not from each run.

    They also take optional outcome caches ([?stores], one {!Cache} per
    factory): per-seed outcomes found in the cache are not recomputed,
    and freshly computed ones are offered back. The caches are consulted
    strictly before and updated strictly after the parallel sections,
    from the calling domain, so caching composes with any [jobs] value
    and — because a hit is byte-for-byte the outcome that the same
    inputs would recompute — cannot change results, only wall time.

    They also take [?checkpoint] (default 0), which splits the
    misses into rounds of that many tasks: each round's successes reach
    the cache before the next round runs, so a sweep killed mid-way
    resumes from its last completed round — re-running the same command
    with the same store replays the stored outcomes as hits, and
    because every task is a pure function of its inputs the resumed
    output is bit-identical to an uninterrupted run.

    Every sweep, cached or not, polls {!Psn_robust.Interrupt.check}
    on entry, at the start of every task and after each round's
    successes are stored. After a SIGINT/SIGTERM the tasks not yet
    started fail fast, the completed ones still reach the cache, and
    the sweep raises [Interrupted].

    They also take [?telemetry] (default null): each run records a
    ["runner.task"] span tagged with its seed (on the track of the
    domain that executed it), nesting a ["runner.factory"] span for
    algorithm construction and the ["engine.run"] span (which carries
    the algorithm name), the sweep's one ["engine.prepare"] span lands
    on the calling domain's track, and cached batches record hit/miss
    counters and lookup/store spans. Instrumentation never affects outcomes — results
    are bit-identical whether the sink is null or active. *)

type run_spec = {
  workload : Workload.spec;
  seeds : int64 list;  (** One run per seed (paper: 10). *)
}

val default_seeds : int -> int64 list
(** [default_seeds k] is a fixed, documented seed sequence of length
    [k] (1000, 1001, …) so published numbers are reproducible. *)

val outcomes_many :
  ?jobs:int ->
  ?chunk:int ->
  ?faults:Faults.plan ->
  ?stores:Cache.t list ->
  ?checkpoint:int ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  trace:Psn_trace.Trace.t ->
  spec:run_spec ->
  factories:Algorithm.factory list ->
  unit ->
  Engine.outcome list list
(** Run every factory over every seed (fresh workload and fresh
    algorithm state per run; the trace is shared), so algorithms face
    identical workloads, as in a paired comparison. The whole factory ×
    seed grid is one parallel batch, so stragglers in one algorithm
    overlap with the others' work. Results are grouped per factory,
    seeds in order. [stores], when given, must supply one cache per
    factory (in factory order); raises [Invalid_argument] otherwise. *)

(** {1 Graceful degradation}

    {!outcomes_many_result} isolates per-task failures into [result]
    cells instead of aborting the sweep: one failed (algorithm, seed)
    run costs one cell, and study layers can report the failed cell
    while still aggregating the rest. {!outcomes_many} is this followed
    by {!Parallel.join_results} (lowest failing index re-raised) —
    either way every successful round still reaches the cache first, so
    even an aborting sweep checkpoints what it completed. *)

val outcomes_many_result :
  ?jobs:int ->
  ?chunk:int ->
  ?faults:Faults.plan ->
  ?stores:Cache.t list ->
  ?checkpoint:int ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  trace:Psn_trace.Trace.t ->
  spec:run_spec ->
  factories:Algorithm.factory list ->
  unit ->
  (Engine.outcome, exn) result list list

(** {1 Generic memoized fan-out}

    The one fan-out under the entry points above, exported so other
    sweep layers (the experiment module's enumeration fan-out) share
    one checkpoint/resume, interrupt and failure-isolation
    implementation. Wrap it in {!Parallel.join_results} for the
    raising view. *)

val cached_map_result :
  ?jobs:int ->
  ?chunk:int ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  ?checkpoint:int ->
  ?prefix:string ->
  ?prepare:(unit -> unit) ->
  ?cache:('a -> 'b option) * ('a -> 'b -> unit) ->
  env:(unit -> 'env) ->
  compute:('env -> Psn_telemetry.Telemetry.sink -> 'a -> 'b) ->
  'a array ->
  ('b, exn) result array
(** {!Parallel.map_result} over an arbitrary task grid, memoized when
    [cache] = [(find, store)] is given: [find] every task up front
    (from the calling domain), compute the misses in parallel in
    rounds of [checkpoint] tasks (default 0 = one round), and [store]
    each round's successes before the next round. Without [cache]
    every task is a miss, and nothing is looked up, stored or counted.
    Results are stitched back by task index, so the output is
    bit-identical for every [jobs] × [chunk] × [checkpoint] combination
    and any hit pattern.

    {!Psn_robust.Interrupt.check} is polled on entry, at the start of
    every task and after each round's store; a pending signal raises
    [Interrupted] once the round's completed cells are stored.

    [prefix] (default ["runner"]) names the cache instrumentation:
    [<prefix>.cache_lookup] / [<prefix>.cache_store] spans and
    [<prefix>.cache_hits] / [<prefix>.cache_misses] counters, recorded
    only with a [cache], and the [<prefix>.checkpoints] round counter.
    [prepare] (default no-op) runs once, from the calling domain, after
    the lookups and before the first miss is computed — never when
    every task hits — so shared read-only state the misses need (the
    runner's {!Engine.schedule}) is built only when some task needs it.
    Raises [Invalid_argument] when [checkpoint < 0]. *)
