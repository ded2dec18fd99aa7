(** Inter-contact time analysis.

    The time between successive meetings of a node pair is the central
    statistic of the PSN measurement literature: Hui et al. (WDTN'05)
    and Chaintreau et al. (INFOCOM'06) showed its aggregate distribution
    has an approximately power-law body, and Conan et al. showed the
    heterogeneity across pairs matters for routing — the observation the
    paper builds §5.2 on. This module extracts inter-contact samples
    from a trace and fits their tail. *)

val pair_gaps : Trace.t -> Node.id -> Node.id -> float list
(** Gaps between the end of one contact of the pair and the start of
    the next, chronological. Empty when the pair met fewer than twice.
    Raises [Invalid_argument] on out-of-range or equal nodes. *)

val aggregate_gaps : Trace.t -> float array
(** All pairs' inter-contact gaps pooled — the distribution the
    literature plots as a CCDF. *)

val mean_intercontact : Trace.t -> Node.id -> Node.id -> float
(** Mean gap of the pair; [infinity] when they met fewer than twice. *)

val tail_exponent : float array -> float option
(** Hill estimator of the power-law tail exponent alpha (for
    [P[X > x] ~ x^{-alpha}]) over the samples at or above the sample
    median. [None] with fewer than 10 tail samples. *)
