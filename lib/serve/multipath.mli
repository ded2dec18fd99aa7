(** Adaptive multipath routing state, in the spirit of the
    MultipathManager pattern: per-strategy EWMA quality tracking plus
    path-overlap diversity scoring.

    Conan et al.'s heterogeneity results say which forwarding strategy
    wins depends on the observed inter-contact behaviour — so the
    serving layer cannot pick one offline. Instead the router keeps,
    per registered strategy, exponentially weighted moving averages of
    delivery success, delivery delay and transfer-loss fraction (the
    loss signal comes from the {!Psn_sim.Faults} layer: the gap
    between attempted and completed transfers in an engine outcome),
    and rebalances online: {!pick} routes new messages to the current
    best score, {!weights} exposes the full normalised mix.

    Everything here is deterministic: scores are pure folds of the
    observation sequence, ties break on registration order, and there
    is no clock and no randomness — the same observations always
    produce the same routing. *)

type config = {
  alpha : float;  (** EWMA gain, in (0, 1]; higher forgets faster. *)
  explore : int;
      (** Observations a strategy gets the optimistic score 1 for
          before its EWMAs speak — forces every arm to be tried. *)
}

val default_config : config
(** [alpha = 0.3], [explore = 1]. *)

type t

val create : config -> names:string list -> (t, string) result
(** Router over the given strategy names (registration order is the
    tie-break order). [Error] on an invalid config, an empty list or a
    duplicate name. *)

val observe : t -> string -> delivered:bool -> delay:float option -> loss:float -> unit
(** Fold one delivery observation into the named strategy's EWMAs:
    [delivered] updates the success average, [delay] (when delivered)
    the delay average, [loss] — the fraction of attempted transfers
    the faults layer killed — the loss average. Unknown names raise
    [Invalid_argument] (the server only observes names it created the
    router with). *)

val observations : t -> string -> int
(** How many observations the named strategy has absorbed. *)

val score : t -> string -> float
(** The strategy's current quality: [1] while it has fewer than
    [explore] observations, else
    [success * (1 - loss) / (1 + mean_delay)] — deliveries dominate,
    ties go to lower observed delay and loss. *)

val pick : t -> string
(** The highest-scoring strategy; ties break on registration order. *)

val weights : t -> (string * float) list
(** Scores normalised to sum 1 (uniform when all scores are 0), in
    registration order — the router's current traffic mix. *)

val dump : t -> (string * (int * float * float * bool * float)) list
(** Raw per-strategy state [(obs, success, delay, has_delay, loss)] in
    registration order — what snapshots persist. *)

val load : t -> (string * (int * float * float * bool * float)) list -> (unit, string) result
(** Overwrite the router's state with {!dump} output; inverse of
    [dump] (bit-exact when the floats round-tripped exactly, which the
    snapshot codec's hex-float rendering guarantees). [Error], leaving
    the router untouched, unless the rows name the router's strategies
    in registration order with non-negative observation counts. *)

val diversity : Psn_paths.Path.t list -> (float * float) option
(** [(node, edge)] diversity of a path set: 1 minus the mean pairwise
    Jaccard overlap of node sets and of directed-hop edge sets — 1
    means fully disjoint paths, 0 means identical. [None] with fewer
    than two paths. To bound the O(pairs) cost against the paper's
    path explosion, at most the first {!diversity_cap} paths (the
    earliest arrivals — the ones forwarding actually exercises) enter
    the computation; callers see the cap, not a silent truncation. *)

val diversity_cap : int
(** 32. *)
