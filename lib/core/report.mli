(** Plain-text rendering of experiment outputs.

    One [render_*] per figure; all return a complete multi-line string
    (title, configuration note, data table) that {!Catalogue} and the
    CLI print verbatim. *)

val render_timeseries : title:string -> (string * Psn_stats.Timeseries.t) list -> string
(** Fig. 1-style series: per dataset, summary of the binned counts plus
    a coarse sparkline of the evolution. *)

val render_cdfs : title:string -> ?points:int -> (string * Psn_stats.Cdf.t) list -> string
(** Tabulated CDFs side by side at shared quantile rows. *)

val render_scatter : title:string -> ?max_rows:int -> (float * float) list -> string
(** Two-column scatter summary: joint quantiles plus the first rows. *)

val render_scatter_by_pair :
  title:string -> (Classify.pair_type * (float * float) list) list -> string
(** Fig. 8: per pair type, T1 and TE distribution summaries. *)

val render_histogram : title:string -> Psn_stats.Histogram.t -> string
(** Fig. 6: counts per bin with an ASCII bar. *)

val render_metrics : title:string -> (string * Psn_sim.Metrics.t) list -> string
(** Fig. 9: success rate, delays and copies per algorithm. *)

val render_metrics_by_pair :
  title:string -> (Classify.pair_type * (string * Psn_sim.Metrics.t) list) list -> string
(** Fig. 13: the same, per pair type. *)

val render_resilience : title:string -> Experiments.resilience_study -> string
(** Per fault intensity: the metrics table of every algorithm (success,
    delays, copies, attempts/copies overhead) plus the surviving-path
    summary of the probe messages, and — when cells failed — one
    [FAILED algo seed: reason] line per failed cell. *)

val render_failed_cells :
  title:string -> (string * int64 * string) list -> string
(** A block of [FAILED algo seed: reason] lines for a study's failed
    cells ({!Experiments.sim_study}'s [sim_failed]); the empty string
    when none did, so healthy reports are unchanged. *)

val render_cumulative : title:string -> (float * int) array -> string
(** Fig. 11: the delivery staircase at regular checkpoints. *)

val render_fig12 : title:string -> Experiments.fig12_example list -> string
(** Fig. 12: per example message, the arrival bursts and where each
    algorithm's path landed. *)

val render_hop_rates :
  title:string -> (int * Psn_stats.Summary.t * (float * float)) list -> string
(** Fig. 14: mean rate per hop with confidence intervals. *)

val render_hop_ratios : title:string -> (string * Psn_stats.Boxplot.t) list -> string
(** Fig. 15: rate-ratio box plots per hop transition. *)

val render_model_rows : title:string -> Experiments.model_row list -> string
(** M01/M02: closed form vs ODE vs Monte-Carlo. *)

val render_quadrants : title:string -> Psn_model.Inhomogeneous.quadrant_stats list -> string
(** M03: the §5.2 quadrant table with the paper's qualitative
    predictions alongside. *)
