(** Community detection over contact graphs.

    Social-structure forwarding (BubbleRap and friends) needs a
    partition of the population into communities. This module builds a
    weighted contact graph from a trace (edge weight = total contact
    duration of the pair) and partitions it by synchronous-free label
    propagation — simple, deterministic given the tie-breaking order,
    and effective on the strongly modular graphs that venue-based
    mobility produces. *)

type t
(** A community assignment over a trace's population. *)

val detect : ?min_weight:float -> Psn_trace.Trace.t -> t
(** Run label propagation on the contact-duration graph, for at most
    50 sweeps (propagation almost always stabilises within a handful).
    Edges lighter than [min_weight] seconds of total contact
    (default 0) are ignored. *)

val n_communities : t -> int
(** Community labels are arbitrary but dense in [\[0, n_communities)];
    isolated nodes get singleton communities. *)

val members : t -> int -> Psn_trace.Node.id list
(** Ascending members of one community. Raises [Invalid_argument] for
    an unknown label. *)

val same_community : t -> Psn_trace.Node.id -> Psn_trace.Node.id -> bool

val sizes : t -> int array
(** Community sizes, indexed by label. *)

val modularity : t -> Psn_trace.Trace.t -> float
(** Newman modularity Q of the assignment over the same weighted graph
    — a quality check: venue-structured traces should score well above
    0, a uniform random graph near 0. *)
