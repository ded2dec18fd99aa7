(** First-class probability distributions.

    A small algebra of distributions that the trace generator exposes in
    its configuration, so callers can describe e.g. "contact durations
    are Exp(1/60) truncated to 600 s" as data rather than code. *)

type t =
  | Constant of float  (** Always the same value. *)
  | Uniform of { lo : float; hi : float }  (** Uniform on [\[lo, hi)]. *)
  | Exponential of { rate : float }  (** Exp(rate), mean [1/rate]. *)
  | Pareto of { alpha : float; x_min : float }  (** Heavy-tailed. *)
  | Gaussian of { mu : float; sigma : float }  (** Normal. *)
  | Truncated of { dist : t; lo : float; hi : float }
      (** Underlying distribution, resampled (up to a bounded number of
          attempts, then clamped) into [\[lo, hi\]]. *)

val sample : Rng.t -> t -> float
(** Draw one variate. *)

val mean : t -> float
(** Analytic mean where defined. For [Truncated] the underlying mean
    clamped into the interval is returned (an approximation, documented
    as such). For [Pareto] with [alpha <= 1] the mean is [infinity]. *)
