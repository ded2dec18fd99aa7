(** A contact trace: the fundamental dataset of the study.

    An immutable collection of {!Contact.t} records over a fixed node
    population and time horizon, sorted chronologically, together with
    the per-node metadata (mobile/stationary) and the query operations
    every analysis needs: per-node contact counts and rates (the
    quantity that drives all of §5.2), window restriction, and the
    Fig. 1 time series. *)

type t

val create : n_nodes:int -> horizon:float -> ?kinds:Node.kind array -> Contact.t list -> t
(** Build a trace. Contacts are sorted internally; they must reference
    nodes in [\[0, n_nodes)] and lie within [\[0, horizon)] (ends may be
    clipped to the horizon). [kinds] defaults to all-[Mobile] and must
    have length [n_nodes] when given. Raises [Invalid_argument] on any
    violation. *)

val n_nodes : t -> int
val horizon : t -> float

val kinds : t -> Node.kind array
(** Fresh copy of per-node kinds. *)

val contacts : t -> Contact.t array
(** Fresh copy of all contacts, sorted by {!Contact.compare_by_start}. *)

val n_contacts : t -> int

val iter_contacts : t -> (Contact.t -> unit) -> unit
(** Chronological iteration without copying. *)

val contact_counts : t -> int array
(** Per-node number of contacts over the whole trace — the x-axis of
    the paper's Fig. 7. Each contact counts once for each endpoint. *)

val contact_rates : t -> float array
(** Contacts per second for each node: count / horizon. This is the
    λ_i of §5.2. *)

val median_rate : t -> float
(** Median of {!contact_rates} — the paper's in/out split point. *)

val contact_time_series : t -> bin:float -> Psn_stats.Timeseries.t
(** Contact start events binned over the horizon (Fig. 1 uses 60 s
    bins). *)

val restrict : t -> t0:float -> t1:float -> t
(** Sub-trace of contacts intersecting [\[t0, t1)], clipped to the
    window and re-based so the new trace starts at time 0. Node
    population is preserved. *)

val validate : t -> (unit, string) result
(** Re-checks every invariant (sortedness, bounds, id ranges); used by
    I/O and property tests. *)

val pp_stats : Format.formatter -> t -> unit
(** One-paragraph summary: population, horizon, contact count, per-node
    contact-count quartiles. *)
