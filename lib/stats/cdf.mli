(** Empirical cumulative distribution functions.

    The paper reports most results as CDFs (Figs. 4, 7, 10). This module
    builds an ECDF from a sample and evaluates or tabulates it. *)

type t
(** An immutable ECDF. *)

val of_samples : float array -> t
(** Build from raw observations (any order, duplicates allowed). Raises
    [Invalid_argument] on an empty array. *)

val eval : t -> float -> float
(** [eval t x] is P[X <= x], a step function in [\[0, 1\]]. Binary
    search, O(log n). *)

val inverse : t -> float -> float
(** [inverse t q] is the [q]-quantile of the sample, [q] in [\[0, 1\]]. *)

val size : t -> int
(** Number of underlying observations. *)

val support : t -> float * float
(** Smallest and largest observation. *)

val points : t -> (float * float) list
(** The full staircase as [(x, P[X <= x])] pairs at each distinct
    observation, ascending — directly plottable. *)

val tabulate : t -> ?n:int -> unit -> (float * float) list
(** [tabulate t ~n ()] samples the CDF at [n] evenly spaced abscissae
    across the support (default 50). *)

val ks_distance : t -> t -> float
(** Two-sample Kolmogorov-Smirnov statistic: the maximum absolute gap
    between the two step functions. Used in tests to compare generated
    distributions against references. *)
