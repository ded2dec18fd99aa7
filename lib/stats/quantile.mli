(** Quantiles of finite samples.

    Linear-interpolation quantiles (type 7, the R default): the value
    [q] of the way along the sample in ascending [Float.compare] order. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [\[0, 1\]]. Finds the one or two order
    statistics it interpolates between by selection on a copy of [xs]
    (expected linear time, O(n log n) worst case); [xs] is not modified.
    The result equals interpolating over the sorted sample. Raises
    [Invalid_argument] on an empty array or [q] outside [\[0, 1\]]. *)

val quantiles_sorted : float array -> float list -> float list
(** [quantiles_sorted sorted qs] evaluates many quantiles over data that
    is already sorted ascending — avoids re-sorting per quantile. *)

val median : float array -> float
(** [median xs = quantile xs 0.5]. *)
