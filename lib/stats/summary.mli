(** Streaming summary statistics.

    Welford's online algorithm: numerically stable single-pass mean and
    variance, plus the count. Used everywhere an experiment
    aggregates per-message or per-node values. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
(** Fresh, empty accumulator. *)

val add : t -> float -> unit
(** Feed one observation. Non-finite values raise [Invalid_argument]
    (silently absorbing a NaN would corrupt every downstream figure). *)

val count : t -> int
(** Number of observations so far. *)

val mean : t -> float
(** Arithmetic mean. [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance (n-1 denominator). [nan] when fewer than
    two observations. *)

val stddev : t -> float
(** Square root of {!variance}. *)

val of_array : float array -> t
(** Summarise an array in one pass. *)
