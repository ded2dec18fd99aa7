(** In/out node classification (§5.2).

    The paper splits each dataset's nodes into two equal-sized groups at
    the median contact rate: 'in' nodes (above the median) and 'out'
    nodes (below). Every message then falls into one of four
    source-destination pair types, which §5.2 shows govern both the
    optimal path duration and the time to explosion. *)

type node_class = In  (** Contact rate above the median. *) | Out  (** At or below. *)

type pair_type = In_in | In_out | Out_in | Out_out

type t
(** A classification of one trace's population. *)

val of_trace : Psn_trace.Trace.t -> t
(** Compute rates and the median split. *)

val rate : t -> Psn_trace.Node.id -> float
(** The node's contact rate λ_i (contacts per second over the trace). *)

val median_rate : t -> float

val node_class : t -> Psn_trace.Node.id -> node_class

val pair_type : t -> src:Psn_trace.Node.id -> dst:Psn_trace.Node.id -> pair_type

val n_in : t -> int
(** Number of 'in' nodes (≈ half the population). *)

val equal_pair_type : pair_type -> pair_type -> bool

val compare_pair_type : pair_type -> pair_type -> int
(** Total order in the paper's presentation order (in-in < in-out <
    out-in < out-out) — the comparator for {!Psn_sim.Metrics.grouped}
    and other explicit-comparator containers. *)

val all_pair_types : pair_type list
(** In the paper's order: in-in, in-out, out-in, out-out. *)

val pair_type_name : pair_type -> string
(** ["in-in"], ["in-out"], ["out-in"], ["out-out"]. *)
