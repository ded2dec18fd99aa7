(** Drivers reproducing every figure of the paper's evaluation.

    Each function returns plain data (CDFs, histograms, metric rows)
    that {!Report} renders and {!Catalogue} prints. Heavy inputs
    are shared through two study values: an {e enumeration study} (one
    path enumeration per sampled message — Figs. 4, 5, 6, 8, 11, 12,
    14, 15) and a {e simulation study} (multi-seed forwarding runs —
    Figs. 9, 10, 12, 13).

    The [scale] record trades fidelity for runtime: [default_scale]
    keeps every figure's shape while finishing in minutes;
    [paper_scale] matches the paper's parameters (1800 messages per
    run, k = 2000, 10 seeds). Everything else is a constant of the
    figure it belongs to, stated with its function: the figures'
    simulation studies run the paper's six algorithms
    ({!Psn_forwarding.Registry.paper_six}). *)

type scale = {
  n_messages : int;  (** Messages sampled per enumeration study. *)
  k : int;
      (** Enumeration k: per-node retention, one-step stop, and the
          number of paths that defines "explosion" (paper: 2000). *)
  seeds : int;  (** Simulation runs to average (paper: 10). *)
  hop_paths_per_message : int;
      (** Near-optimal paths kept per message for Figs. 14-15. *)
  rng_seed : int64;  (** Base seed for message sampling. *)
}

val default_scale : scale
(** 120 messages, k = 2000, 3 seeds, 200 hop paths. *)

val paper_scale : scale
(** 1800 messages, k = 2000, 10 seeds, 500 hop paths. *)

(** {1 Inputs} *)

type input = {
  name : string;  (** A preset's name, or ["file:PATH"] for a loaded trace. *)
  label : string;  (** The name figure titles and rows print. *)
  seed : int64;
      (** Mixed into every message sample: sampling seeds are
          [scale.rng_seed] xor [seed]. A preset contributes its own
          seed, a trace file 0. *)
  trace : Psn_trace.Trace.t;
}
(** The trace a study analyses, with how to name and sample it. *)

val of_dataset : Psn_trace.Dataset.t -> input
(** A preset's input: its generated trace, name, label and seed. *)

val generation_window : Psn_trace.Trace.t -> float
(** The first two thirds of the trace's horizon (the paper's "first 2
    hours of 3"): messages are created in [\[0, generation_window)], so
    each has the last third to be delivered. 7200 s on every preset. *)

val paper_workload : Psn_trace.Trace.t -> Psn_sim.Workload.spec
(** {!Psn_sim.Workload.paper_spec} over the trace's population, with
    its window cut to {!generation_window}, so a trace shorter than
    the presets' three hours still gets messages inside its horizon. *)

(** {1 How a study runs} *)

type exec = {
  jobs : int option;  (** Worker domains; [None] is {!Psn_sim.Parallel.default_jobs}. *)
  chunk : int option;  (** Tasks per claimed range; [None] is {!Psn_sim.Parallel}'s. *)
  store : Psn_store.Store.t option;
      (** Memoizes every task's result, keyed on all its inputs: a warm
          store replays a study without recomputing it. *)
  checkpoint : int;
      (** With a store, rounds of this many tasks, each stored before the
          next starts, so a killed study resumes where it stopped. 0 is
          one round. *)
  telemetry : Psn_telemetry.Telemetry.sink;  (** Spans and counters. *)
}
(** How a study runs, never what it computes. Every fan-out below goes
    through {!Psn_sim.Runner.cached_map_result} with these settings,
    after every random draw is made in task order, so results are
    bit-identical for any [jobs], [chunk], [checkpoint], telemetry and
    store hit pattern. Each fan-out polls {!Psn_robust.Interrupt.check}
    and raises [Interrupted] after a signal, once its completed tasks
    are stored. *)

val default_exec : exec
(** Default [jobs] and [chunk], no store or checkpoint, null
    telemetry. *)

(** {1 Enumeration studies} *)

type message_result = {
  src : Psn_trace.Node.id;
  dst : Psn_trace.Node.id;
  t_create : float;
  pair : Classify.pair_type;
  summary : Psn_paths.Explosion.summary;
  arrival_times : float array;  (** Absolute delivery times, ascending. *)
  sample_paths : Psn_paths.Path.t list;  (** First few delivered paths. *)
}

type study = { input : input; classify : Classify.t; messages : message_result list }

val enumerate :
  ?exec:exec ->
  trace:Psn_trace.Trace.t ->
  config:Psn_paths.Enumerate.config ->
  Psn_spacetime.Snapshot.t ->
  (Psn_trace.Node.id * Psn_trace.Node.id * float) array ->
  Psn_paths.Enumerate.result array
(** [enumerate ~trace ~config snap specs] runs one path enumeration per
    [(src, dst, t_create)] spec over [snap], the snapshot of [trace], in
    spec order. The store key is the trace's content hash, [config] and
    the spec. Records a ["paths.enumerate"] span per spec. A failed
    enumeration is re-raised. *)

val enumeration_study : ?exec:exec -> ?scale:scale -> input -> study
(** Enumerate paths for [scale.n_messages] random messages over the
    input's trace, through {!enumerate}. The expensive call — share the
    result across figure functions. Records [setup] and [collect]
    phase spans around the enumerations. *)

(** {1 Figures 1-8, 11, 14, 15 (measurement side)} *)

val fig1 : input list -> (string * Psn_stats.Timeseries.t) list
(** Total contacts per 60 s bin for each input. *)

val fig2 : unit -> string
(** The paper's three-node example space-time graph, rendered. *)

val fig4a : study list -> (string * Psn_stats.Cdf.t) list
(** CDF of optimal path duration per study. Studies with no delivered
    message are omitted. *)

val fig4b : study list -> (string * Psn_stats.Cdf.t) list
(** CDF of time to explosion per study (messages that exploded). *)

val fig5 : study -> (float * float) list
(** (optimal duration, time to explosion) scatter points. *)

val fig6 : study -> Psn_stats.Histogram.t
(** Pooled histogram of path arrivals relative to T1, in 10 s bins
    over the 300 s after T1, over the messages with TE of at least
    150 s (the paper's slow cases). *)

val fig7 : input list -> (string * Psn_stats.Cdf.t) list
(** CDF of per-node contact counts for each input. *)

val fig8 : study -> (Classify.pair_type * (float * float) list) list
(** Fig. 5's scatter split by source-destination pair type. *)

val fig11 : study -> (float * int) array
(** Cumulative count of all (near-)optimal path deliveries over
    absolute time — the burstiness check. *)

val fig14 : study -> (int * Psn_stats.Summary.t * (float * float)) list
(** Mean node contact rate per hop position with 99% CIs. *)

val fig15 : study -> (string * Psn_stats.Boxplot.t) list
(** Box plots of consecutive-hop rate ratios. *)

(** {1 Figures 9, 10, 12, 13 (forwarding side)} *)

type sim_study = {
  sim_classify : Classify.t;
  runs : (Psn_forwarding.Registry.entry * Psn_sim.Engine.outcome list) list;
      (** Per algorithm, the outcomes of its {e successful} seeds (all
          of them unless cells failed). *)
  sim_failed : (string * int64 * string) list;
      (** Failed cells — (algorithm label, seed, reason) — isolated by
          {!Psn_sim.Runner.outcomes_many_result} instead of aborting
          the study. Empty on a healthy run. *)
}

val sim_study :
  ?exec:exec ->
  ?scale:scale ->
  ?faults:Psn_sim.Faults.spec ->
  input ->
  Psn_forwarding.Registry.entry list ->
  sim_study
(** [sim_study input entries] runs each entry over [scale.seeds]
    Poisson workloads (rate 1/4 s over the first two thirds of the
    trace, as in §6.1). It is the one simulation grid: the catalogue
    calls it with {!Psn_forwarding.Registry.paper_six} (Figs. 9, 10,
    13) and with A01's replication budgets, [psn simulate] with its
    [-a] entries and [--seeds], and each {!resilience_study} level with
    that level's fault spec. [faults], when given, is compiled over the
    trace and injected into every run; it also keys the store, so
    faulted and pristine outcomes never alias. The algorithm × seed
    grid is one parallel batch, and the store keys each (algorithm,
    seed) outcome on the entry's [name]. A failed cell lands in
    [sim_failed] rather than aborting the study; it is never stored, so
    a rerun over the same store recomputes exactly the failed cells.
    Records an ["experiments.sim_study"] span with a [setup] phase. *)

val entry_caches :
  Psn_store.Store.t ->
  trace:Psn_trace.Trace.t ->
  ?faults:Psn_sim.Faults.spec ->
  workload:Psn_sim.Workload.spec ->
  Psn_forwarding.Registry.entry list ->
  Psn_sim.Cache.t list
(** One store-backed outcome cache per entry, in entry order — the
    [stores] argument of {!Psn_sim.Runner.outcomes_many_result} for a
    simulation of [trace] under [workload] (and [faults], when the runs
    are faulted), as {!sim_study} builds it. Keys use each entry's
    stable registry name, so a warm store answers without constructing
    the algorithm. *)

val fig9 : sim_study -> (string * Psn_sim.Metrics.t) list
(** Average delay and success rate per algorithm — one Fig. 9 panel.
    Algorithms whose every seed failed are omitted (see
    [sim_failed]). *)

val fig10 : sim_study -> (string * Psn_stats.Cdf.t) list
(** Full delay distribution per algorithm. Algorithms that delivered
    nothing are omitted. *)

val fig13 :
  sim_study -> (Classify.pair_type * (string * Psn_sim.Metrics.t) list) list
(** Per pair type, per algorithm metrics (Fig. 13's two panels). *)

type fig12_example = {
  ex_src : Psn_trace.Node.id;
  ex_dst : Psn_trace.Node.id;
  ex_t_create : float;
  ex_t1 : float;  (** Absolute first-arrival time. *)
  arrival_offsets : float list;  (** Path arrivals as seconds after T1. *)
  algorithm_offsets : (string * float option) list;
      (** Each algorithm's delivery for this exact message, as seconds
          after T1 ([None] = not delivered). *)
}

val fig12 : study -> n_examples:int -> fig12_example list
(** Pick delivered messages with a non-trivial explosion from the study
    and replay each alone under each of the paper's six algorithms,
    locating the paths the algorithms take within the arrival bursts. *)

(** {1 Resilience under fault injection} *)

type resilience_level = {
  res_intensity : float;  (** The {!Psn_sim.Faults.scale} multiplier. *)
  res_spec : Psn_sim.Faults.spec;  (** The scaled spec actually injected. *)
  res_sim : sim_study;
      (** The paper's six algorithms under this level's spec; its
          {!fig9} rows are the level's pooled metrics ([attempts] >
          [copies] measures the loss overhead) and its [sim_failed] the
          level's failed cells. *)
  res_survival : Psn_paths.Explosion.survival list;
      (** Per probe message, paths surviving on the degraded contact
          set vs the pristine baseline. *)
}

val default_fault_spec : Psn_sim.Faults.spec
(** Intensity-1 reference: 20% transfer loss, 2 crashes/h per node with
    5 min mean repair, up to 30% contact truncation. *)

val resilience_study :
  ?exec:exec -> ?scale:scale -> ?base:Psn_sim.Faults.spec -> input -> resilience_level list
(** The robustness experiment the paper's thesis implies but never runs:
    sweep fault intensity ([0, 0.5, 1, 2] × [base], base defaulting to
    {!default_fault_spec}) and, per level, (a) run {!sim_study} over the
    paper's six algorithms with the level's faults injected, and (b) re-enumerate 30 probe messages
    on the fault-degraded contact set, measuring
    how many of the exploded paths survive. Delivery should degrade
    sublinearly in intensity exactly where surviving path counts stay
    large, and the six algorithms should stay near-identical — path
    diversity, not algorithm choice, buys the graceful degradation.
    The probe enumerations key the store on the degraded trace's
    content hash, so levels never alias. Failed simulation cells land
    in each level's [res_sim.sim_failed]. Records one
    ["experiments.level"] span per intensity (tagged with the
    multiplier) around that level's ["experiments.sim_study"] span and
    its probe enumerations. *)

(** {1 Analytic-model tables (§5)} *)

type model_row = {
  m_time : float;
  m_closed : float;  (** Closed-form value. *)
  m_ode : float;  (** Truncated-ODE value. *)
  m_mc : float;  (** Monte-Carlo estimate. *)
}

val model_mean_table : n:int -> lambda:float -> times:float list -> runs:int -> model_row list
(** E\[S(t)\]: eq. (4) vs the ODE truncated at k = 400 vs Monte-Carlo
    ([runs] runs from seed 5). *)

val model_second_moment_table :
  n:int -> lambda:float -> times:float list -> runs:int -> model_row list
(** E\[S(t)²\]: closed form vs ODE (Σ k² u_k, truncated at k = 400) vs
    Monte-Carlo ([runs] runs from seed 5). *)

val model_blowup_table : n:int -> lambda:float -> xs:float list -> (float * float option) list
(** [(x, T_C(x))] — finite-time divergence of the generating function. *)

val model_quadrant_table : unit -> Psn_model.Inhomogeneous.quadrant_stats list
(** The §5.2 quadrant hypotheses measured on the two-class model at
    the trace scale: N = 98, half high-rate at 0.03 contacts/s, half at
    0.005 contacts/s, a 3-hour window, 60 messages per quadrant from
    seed 11, explosion at 2000 paths. *)
