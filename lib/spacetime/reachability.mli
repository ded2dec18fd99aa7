(** Epidemic (earliest-arrival) reachability on the space-time graph.

    Floods a message from a source through the per-step contact
    closures. The arrival time this computes is the optimal path
    duration [T(σ, δ, t1)] of §4 — what epidemic forwarding achieves —
    and it serves as the oracle that the path enumerator's first output
    is verified against. *)

type arrivals
(** Earliest arrival times of one flood. *)

val flood : Snapshot.t -> src:Psn_trace.Node.id -> t_create:float -> arrivals
(** Run the flood. The message is created at [t_create]; following the
    paper's enumeration semantics, propagation starts in the step after
    the one containing [t_create]. Raises [Invalid_argument] if
    [t_create] lies outside the trace window or [src] is out of
    range. *)

val arrival_step : arrivals -> Psn_trace.Node.id -> int option
(** Step at which the node first holds the message ([None] = never; the
    source maps to the creation step). *)

val arrival_time : arrivals -> Psn_trace.Node.id -> float option
(** Absolute time [cΔ] of first arrival. *)

val delivery_delay : arrivals -> dst:Psn_trace.Node.id -> float option
(** [arrival_time dst - t_create], i.e. the optimal path duration. *)

val reached : arrivals -> int
(** Number of nodes reached, including the source. *)
