(** Binning timestamped events into a time series.

    Fig. 1 (total contacts per minute) and Fig. 11 (cumulative delivery
    times) are event streams binned on a regular grid. *)

type t
(** An immutable binned series. *)

val bin_events : t0:float -> t1:float -> bin:float -> float Seq.t -> t
(** [bin_events ~t0 ~t1 ~bin events] counts event timestamps into bins
    of width [bin] seconds covering [\[t0, t1)]. Events outside the
    window are dropped. Requires [t0 < t1] and [bin > 0]. *)

val counts : t -> int array
(** Per-bin event counts. *)

val cumulative : t -> (float * int) array
(** [(bin_right_edge, events so far)] — the Fig. 11 staircase. *)

val mean_rate : t -> float
(** Events per second over the whole window. *)

val stability : t -> float
(** Coefficient of variation (sd/mean) of the per-bin counts — the
    quantitative version of the paper's "visual inspection indicated
    that contact rates were relatively stable". Lower is more stable;
    [nan] for an empty series. *)
