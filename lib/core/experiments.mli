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
    run, k = 2000, 10 seeds). *)

type scale = {
  n_messages : int;  (** Messages sampled per enumeration study. *)
  k : int;  (** Enumeration k (per-node retention and one-step stop). *)
  n_explosion : int;  (** Paths defining "explosion" (paper: 2000). *)
  seeds : int;  (** Simulation runs to average (paper: 10). *)
  hop_paths_per_message : int;
      (** Near-optimal paths kept per message for Figs. 14-15. *)
  rng_seed : int64;  (** Base seed for message sampling. *)
}

val default_scale : scale
(** 120 messages, k = 2000, 3 seeds, 200 hop paths. *)

val paper_scale : scale
(** 1800 messages, k = 2000, 10 seeds, 500 hop paths. *)

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

type study = {
  dataset : Psn_trace.Dataset.t;
  trace : Psn_trace.Trace.t;
  classify : Classify.t;
  scale : scale;
  messages : message_result list;
}

val enumeration_study :
  ?jobs:int ->
  ?chunk:int ->
  ?store:Psn_store.Store.t ->
  ?retries:int ->
  ?checkpoint:int ->
  ?scale:scale ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  Psn_trace.Dataset.t ->
  study
(** Enumerate paths for [scale.n_messages] random messages over the
    dataset's trace. The expensive call — share the result across
    figure functions. The per-message enumerations are independent and
    run on [jobs] domains (default {!Psn_sim.Parallel.default_jobs}),
    claimed in ranges of [chunk] tasks; messages are drawn sequentially
    first, so results do not depend on [jobs] or [chunk]. [store], when given, memoizes each per-message enumeration
    (keyed on trace content, config and message spec) without changing
    any result. [retries] and [checkpoint] behave as in {!Psn_sim.Runner}:
    bounded deterministic retry of transient failures, and (with a
    store) checkpoint rounds so a killed study resumes from its last
    completed round bit-identically. [telemetry] (default null)
    records phase spans ([setup] / per-pair ["paths.enumerate"] /
    [collect]) and enumeration cache counters; instrumentation never
    changes the study. *)

(** {1 Figures 1-8, 11, 14, 15 (measurement side)} *)

val fig1 : ?bin:float -> Psn_trace.Dataset.t list -> (string * Psn_stats.Timeseries.t) list
(** Total contacts per time bin (default 60 s) for each dataset. *)

val fig2 : unit -> string
(** The paper's three-node example space-time graph, rendered. *)

val fig4a : study list -> (string * Psn_stats.Cdf.t) list
(** CDF of optimal path duration per study. Studies with no delivered
    message are omitted. *)

val fig4b : study list -> (string * Psn_stats.Cdf.t) list
(** CDF of time to explosion per study (messages that exploded). *)

val fig5 : study -> (float * float) list
(** (optimal duration, time to explosion) scatter points. *)

val fig6 : ?te_min:float -> ?bin:float -> ?window:float -> study -> Psn_stats.Histogram.t
(** Pooled histogram of path arrivals relative to T1, over messages
    with TE at least [te_min] (default 150 s, the paper's slow cases);
    [bin] defaults to 10 s, [window] to 300 s. *)

val fig7 : Psn_trace.Dataset.t list -> (string * Psn_stats.Cdf.t) list
(** CDF of per-node contact counts for each dataset. *)

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
  sim_dataset : Psn_trace.Dataset.t;
  sim_trace : Psn_trace.Trace.t;
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
  ?jobs:int ->
  ?chunk:int ->
  ?store:Psn_store.Store.t ->
  ?retries:int ->
  ?checkpoint:int ->
  ?scale:scale ->
  ?entries:Psn_forwarding.Registry.entry list ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  Psn_trace.Dataset.t ->
  sim_study
(** Run each algorithm ([entries] defaults to the paper's six) over
    [scale.seeds] Poisson workloads (rate 1/4 s over the first two
    hours, as in §6.1). The algorithm × seed grid is one parallel batch
    over [jobs] domains, claimed in ranges of [chunk] tasks; output is
    independent of [jobs] and [chunk]. [store], when
    given, memoizes each (algorithm, seed) outcome — a warm store
    replays the study bit-identically without running the engine.
    [retries] retries transient cell failures deterministically;
    [checkpoint] (with a store) makes the sweep resumable in rounds of
    that many cells. A cell that still fails lands in [sim_failed]
    rather than aborting the study. [telemetry] (default null) wraps
    the study in phase spans and threads through to the runner and
    engine. *)

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
    are faulted). Keys use each entry's stable registry name, so a warm
    store answers without constructing the algorithm. *)

val failed_cells :
  Psn_forwarding.Registry.entry list ->
  int64 list ->
  (Psn_sim.Engine.outcome, exn) result list list ->
  (string * int64 * string) list
(** [failed_cells entries seeds cells] flattens the [Error] cells of a
    {!Psn_sim.Runner.outcomes_many_result} grid into (algorithm label,
    seed, reason) triples, in (algorithm, seed) order — the
    [sim_failed] view, and the input of
    {!Report.render_failed_cells}. *)

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

val fig12 :
  ?entries:Psn_forwarding.Registry.entry list ->
  study ->
  n_examples:int ->
  fig12_example list
(** Pick delivered messages with a non-trivial explosion from the study
    and replay each alone under every algorithm, locating the paths the
    algorithms take within the arrival bursts. *)

(** {1 Resilience under fault injection} *)

type resilience_level = {
  res_intensity : float;  (** The {!Psn_sim.Faults.scale} multiplier. *)
  res_spec : Psn_sim.Faults.spec;  (** The scaled spec actually injected. *)
  res_rows : (Psn_forwarding.Registry.entry * Psn_sim.Metrics.t) list;
      (** Pooled multi-seed metrics per algorithm at this intensity
          ([attempts] > [copies] measures the loss overhead). Pools
          the successful seeds; all-failed algorithms are omitted. *)
  res_survival : Psn_paths.Explosion.survival list;
      (** Per probe message, paths surviving on the degraded contact
          set vs the pristine baseline. *)
  res_failed : (string * int64 * string) list;
      (** Failed simulation cells at this level — (algorithm label,
          seed, reason); empty on a healthy run. *)
}

type resilience_study = {
  res_dataset : Psn_trace.Dataset.t;
  res_trace : Psn_trace.Trace.t;
  res_scale : scale;
  res_base : Psn_sim.Faults.spec;
  res_levels : resilience_level list;
}

val default_fault_spec : Psn_sim.Faults.spec
(** Intensity-1 reference: 20% transfer loss, 2 crashes/h per node with
    5 min mean repair, up to 30% contact truncation. *)

val resilience_study :
  ?jobs:int ->
  ?chunk:int ->
  ?store:Psn_store.Store.t ->
  ?retries:int ->
  ?checkpoint:int ->
  ?scale:scale ->
  ?entries:Psn_forwarding.Registry.entry list ->
  ?base:Psn_sim.Faults.spec ->
  ?intensities:float list ->
  ?path_messages:int ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  Psn_trace.Dataset.t ->
  resilience_study
(** The robustness experiment the paper's thesis implies but never runs:
    sweep fault intensity (default [0, 0.5, 1, 2] × [base], base
    {!default_fault_spec}) and, per level, (a) run every algorithm
    ([entries] defaults to the paper's six) over [scale.seeds] workloads
    with faults injected, and (b) re-enumerate [path_messages] probe
    messages (default 40) on the fault-degraded contact set, measuring
    how many of the exploded paths survive. Delivery should degrade
    sublinearly in intensity exactly where surviving path counts stay
    large, and the six algorithms should stay near-identical — path
    diversity, not algorithm choice, buys the graceful degradation.
    Deterministic for any [jobs]. [store] memoizes both the per-level
    simulation outcomes (keyed on the fault spec among other inputs)
    and the probe enumerations (keyed on the degraded trace's content
    hash). [retries] / [checkpoint] thread through to the runner and
    enumeration fan-outs as in {!sim_study}; failed simulation cells
    land in each level's [res_failed]. Level boundaries poll
    {!Psn_robust.Interrupt.check}, so an interrupted sweep keeps every
    completed level's stored results. [telemetry] (default null)
    records one ["experiments.level"] span per intensity (tagged with
    the multiplier) around the fanned runs and enumerations. *)

(** {1 Analytic-model tables (§5)} *)

type model_row = {
  m_time : float;
  m_closed : float;  (** Closed-form value. *)
  m_ode : float;  (** Truncated-ODE value. *)
  m_mc : float;  (** Monte-Carlo estimate. *)
}

val model_mean_table :
  n:int -> lambda:float -> times:float list -> runs:int -> ?k_max:int -> ?seed:int64 -> unit ->
  model_row list
(** E\[S(t)\]: eq. (4) vs the truncated ODE vs Monte-Carlo. *)

val model_second_moment_table :
  n:int -> lambda:float -> times:float list -> runs:int -> ?k_max:int -> ?seed:int64 -> unit ->
  model_row list
(** E\[S(t)²\]: closed form vs ODE (Σ k² u_k) vs Monte-Carlo. *)

val model_blowup_table : n:int -> lambda:float -> xs:float list -> (float * float option) list
(** [(x, T_C(x))] — finite-time divergence of the generating function. *)

val model_quadrant_table :
  ?classes:Psn_model.Inhomogeneous.classes ->
  ?messages:int ->
  ?n_explosion:int ->
  ?t_end:float ->
  ?seed:int64 ->
  unit ->
  Psn_model.Inhomogeneous.quadrant_stats list
(** The §5.2 quadrant hypotheses measured on the two-class model.
    Defaults mirror the trace scale: N = 98, half high-rate at
    0.03 contacts/s, half at 0.005 contacts/s, 3-hour window. *)
