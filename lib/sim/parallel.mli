(** Multicore fan-out for embarrassingly parallel sweeps.

    The experiment layer is dominated by two shapes of work: one
    simulation run per (algorithm, seed) and one path enumeration per
    (src, dst) pair. Both are independent tasks over an index set, so
    this module provides exactly that: a [Domain]-based work pool
    (OCaml 5 stdlib only, no external dependency) that applies a
    function to every element of an array and returns the results
    {e keyed by input index}.

    Scheduling is {e chunked} work-stealing: workers repeatedly claim
    the next unclaimed index {e range} of [chunk] tasks from a shared
    atomic counter ([Atomic.fetch_and_add] once per chunk, not once
    per task), so dispatch overhead is amortised across the chunk
    while the tail of the range still balances across workers.

    Determinism contract: because every task owns its inputs (per-task
    RNG seeds, fresh algorithm state) and results land in the slot of
    their input index, a parallel run is bit-identical to a sequential
    run of the same tasks — scheduling (including the [jobs] and
    [chunk] values) only changes {e when} a task runs, never what it
    computes or where its result goes. Tasks must not share mutable
    state; all library tasks fed to this module (engine runs,
    enumerations) mutate only state they create or receive through
    {!map_env}'s per-worker environment.

    Exceptions raised by tasks are caught per task — the worker keeps
    draining its chunk and claiming more — and either isolated into
    that task's [result] cell ({!map_result}) or re-raised in the
    caller after all workers have joined, lowest task index first
    (every other entry point), so failure behaviour is deterministic
    for every [jobs] × [chunk] combination.

    Telemetry ({!map_traced}, {!map_env}): each worker domain records
    into its own forked {!Psn_telemetry.Telemetry.sink} (one
    Chrome-trace track per worker), merged deterministically after the
    joins — recording is lock-free and can never affect results, only
    describe them. Children are forked for the requested [jobs] even
    on the sequential path ([jobs = 1], or fewer tasks than workers),
    so the track structure of a trace depends only on [jobs], never on
    the task count. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool size used when
    [?jobs] is omitted. *)

val map_traced :
  ?jobs:int ->
  ?chunk:int ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  (Psn_telemetry.Telemetry.sink -> 'a -> 'b) ->
  'a array ->
  'b array
(** [map_traced ~jobs ~chunk f tasks] is [Array.map (f sink) tasks]
    computed by up to [jobs] domains (the calling domain works too,
    and no more domains are spawned than there are chunks to claim).
    [jobs] defaults to {!default_jobs}; [jobs = 1] runs entirely on
    the calling domain with no spawning. [chunk] is the number of task
    indices a worker claims per grab; it defaults to a heuristic
    aiming at ~4 chunks per worker (clamped to [1, 64]) and must be
    [>= 1]. Raises [Invalid_argument] when [jobs < 1] or
    [chunk < 1].

    Each task receives the sink of the domain executing it, so
    instrumented tasks (runner simulations, path enumerations)
    attribute their spans to the right track. [jobs] child sinks are
    {!Psn_telemetry.Telemetry.fork}ed up front — uniformly, whatever
    the task count — and worker [k] records into child [k]; the
    children are joined after the domains are. The default sink is
    null. *)

val map_env :
  ?jobs:int ->
  ?chunk:int ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  env:(unit -> 'env) ->
  ('env -> Psn_telemetry.Telemetry.sink -> 'a -> 'b) ->
  'a array ->
  'b array
(** {!map_traced} with a per-worker environment: [env ()] runs once on
    each worker domain before it claims any work, and every task that
    worker executes receives the worker's value. This is how callers
    reuse expensive mutable state (e.g. {!Engine.scratch} buffers)
    across the consecutive tasks of one domain without sharing it
    between domains — the environment is created, used and dropped
    entirely within its worker. [env] must not capture mutable state
    shared with other workers; results must not depend on which tasks
    ended up sharing an environment (the library's environments are
    pure caches, checked by the determinism tests). *)

val map_result :
  ?jobs:int ->
  ?chunk:int ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  env:(unit -> 'env) ->
  ('env -> Psn_telemetry.Telemetry.sink -> 'a -> 'b) ->
  'a array ->
  ('b, exn) result array
(** {!map_env} with graceful degradation: each task's outcome lands in
    its own [result] cell instead of aborting the sweep, so one failed
    (algorithm, seed) run costs exactly one cell of a study, never the
    study. Each task runs once; a task that raises becomes an [Error]
    cell carrying its exception. Recovery is the caller's: the store
    layer never keeps a failed cell, so a resumed sweep recomputes
    exactly the [Error] cells. The sink counts ["parallel.failures"]
    (cells that ended [Error]). *)

val join_results : ('a, exn) result array -> 'a array
(** Unwrap a {!map_result} cell array, re-raising the {e lowest-index}
    [Error] if any — the deterministic all-or-nothing view the
    raising entry points are built on. *)
