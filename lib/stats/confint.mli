(** Confidence intervals on a mean.

    Normal-approximation intervals — what the paper's 99% error bars in
    Fig. 14 use. Adequate for the sample sizes involved (tens to
    thousands); the z quantiles are hard-coded for the confidence levels
    actually used. *)

type level = C90 | C95 | C99

val z_of_level : level -> float
(** Two-sided standard-normal quantile: 1.645, 1.960, 2.576. *)

val of_summary : Summary.t -> level -> float * float
(** [(lo, hi)] interval for the mean. Degenerates to [(mean, mean)] for
    samples of size < 2. Raises [Invalid_argument] on an empty summary. *)

val halfwidth : Summary.t -> level -> float
(** Half the interval width: [z * sd / sqrt n]. *)
