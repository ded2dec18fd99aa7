(** k-shortest valid-path enumeration (the paper's Fig. 3 algorithm).

    Dynamic programming over the space-time graph: at each timestep an
    N x k table holds, per node, the (up to) [k] fewest-hop valid paths
    from the source reaching that node so far. Each step, retained paths
    extend along zero-weight contact chains within the step (recording
    intermediate nodes, enforcing loop-freedom); arrivals at the
    destination are emitted; paths held by a node in direct contact with
    the destination are delivered and not extended to later steps (first
    preference); per node the [k] fewest-hop paths survive.

    Enumeration stops when [k] or more paths reach the destination
    within a single step, when an optional cumulative arrival budget is
    hit, when no live path remains, or at the end of the trace. *)

type config = {
  k : int;  (** Paths retained per node, and the one-step stop threshold
                (paper: 2000). *)
  max_hops : int option;  (** Optional cap on path length in hops. *)
  stop_at_total : int option;
      (** Stop once this many arrivals have been recorded in total —
          lets explosion analyses (which need the first n* arrivals) cut
          enumeration short. *)
  exhaustive : bool;
      (** When [true], every retained path is re-extended over every
          edge at every step: the paper's per-step Fig. 3 count. When
          [false] (the default), paths only extend when they are newly
          created, the edge is newly present, or the holding node is
          inside the destination's contact component. That is a
          different count, not a faster route to the same one: it drops
          every later crossing of a contact that persists over several
          steps, so it may return fewer arrivals (never more). First
          arrivals agree. *)
}

val default_config : config
(** [k = 2000], no hop cap, no total cap, non-exhaustive. *)

type arrival = {
  path : Path.t;  (** The full delivered path, ending at the destination. *)
  step : int;  (** Delivery step. *)
  time : float;  (** Delivery time [step * delta]. *)
  duration : float;  (** [time - t_create]. *)
}

type result = {
  arrivals : arrival array;  (** Chronological (fewest-hop first within a step). *)
  stopped_early : bool;  (** [true] iff a stop threshold fired before trace end. *)
  steps_processed : int;
  src : Psn_trace.Node.id;
  dst : Psn_trace.Node.id;
  t_create : float;
}

val run :
  ?config:config ->
  Psn_spacetime.Snapshot.t ->
  src:Psn_trace.Node.id ->
  dst:Psn_trace.Node.id ->
  t_create:float ->
  result
(** Enumerate all valid paths for the message [(src, dst, t_create)].
    Raises [Invalid_argument] on out-of-range nodes, [src = dst],
    [t_create] outside the trace window, a non-positive [k], or a
    [max_hops] or [stop_at_total] below 1. *)

val first_arrival : result -> arrival option
(** The optimal path, when one was found. *)

val arrival_times : result -> float array
(** Delivery times of all recorded arrivals, ascending. *)
