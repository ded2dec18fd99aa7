(** The space-time graph, as defined in §4.1.

    A directed weighted graph whose vertices are (node, step) pairs.
    Contact edges connect co-located vertices within a step at weight
    zero; wait edges connect a node to itself one step later at weight
    one. This module is the formal view over {!Snapshot} — the
    enumerator works on snapshots directly for speed, while this
    interface serves inspection, tests, and the Fig. 2 rendering. *)

type vertex = { node : Psn_trace.Node.id; step : int }

type edge =
  | Contact of vertex * vertex  (** Weight 0, same step. *)
  | Wait of vertex * vertex  (** Weight 1, same node, next step. *)

type t

val of_trace : ?delta:float -> Psn_trace.Trace.t -> t

val n_vertices : t -> int
(** [n_nodes * n_steps]. *)

val weight : edge -> int
(** 0 for contact edges, 1 for wait edges. *)

val successors : t -> vertex -> edge list
(** Outgoing edges: contact edges to every step-neighbour plus the wait
    edge (absent at the final step). Raises [Invalid_argument] on an
    out-of-range vertex. *)

val edge_count : t -> int
(** Total directed edges; contact edges count once per direction. *)

val pp_step : Format.formatter -> t -> int -> unit
(** Render one step's contact edges, e.g. ["t=3: 1-2 2-3"]. *)

val pp : Format.formatter -> t -> unit
(** Render every active step — the textual analogue of the paper's
    Fig. 2 example. *)
