(** Space-time forwarding paths and their validity conditions (§4.1).

    A path is a time-ordered sequence of (node, time) hops; a message
    moves to the next node only while the two are in contact. The paper
    restricts attention to {e valid} paths:

    - {b loop avoidance}: no node appears twice;
    - {b minimal progress}: the destination appears only as the final
      hop — any node holding the message hands it over on meeting the
      destination;
    - {b first preference}: no intermediate node sat on the message
      through a direct contact with the destination and delivered only
      later (such a path is dominated by the earlier hand-off).

    Times are step-right-edges of the {!Psn_spacetime.Timegrid}, as
    produced by the enumerator. *)

type hop = { node : Psn_trace.Node.id; step : int }

type t
(** An immutable path with at least one hop. *)

val of_hops : hop list -> t
(** Build from hops in travel order. Raises [Invalid_argument] on an
    empty list or non-monotone steps. *)

val hops : t -> hop list
(** Hops in travel order. *)

val length : t -> int
(** Number of hops (tuples), the paper's path length. *)

val transfers : t -> int
(** [length - 1]: number of node-to-node hand-offs. *)

val nodes : t -> Psn_trace.Node.id list
(** Visited nodes in travel order. *)

val is_loop_free : t -> bool

val respects_minimal_progress : t -> dst:Psn_trace.Node.id -> bool
(** The destination, if present, is the final hop only. *)

val respects_first_preference :
  Psn_spacetime.Snapshot.t -> t -> dst:Psn_trace.Node.id -> bool
(** No hop node was in direct contact with [dst] at a step in
    [\[receipt, delivery)] (delivering exactly at the contact step is
    allowed — the paper's inequality is strict). Vacuously true for
    paths not ending at [dst]. *)

val is_valid : Psn_spacetime.Snapshot.t -> t -> dst:Psn_trace.Node.id -> bool
(** Conjunction of the three conditions. *)

val is_feasible : Psn_spacetime.Snapshot.t -> t -> bool
(** Every hand-off happens over an actual contact edge of its step, and
    waiting only moves forward in time — i.e. the path exists in the
    space-time graph at all. *)

val pp : Format.formatter -> t -> unit
(** ["n0@3 -> n4@3 -> n9@7"]. *)
