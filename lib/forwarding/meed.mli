(** Expected inter-meeting delays (the MEED estimate of Jones, Li &
    Ward, WDTN'05).

    For a pair of nodes with meeting instants [t_1 < … < t_m] in a
    window of length [W], the expected wait until their next meeting
    from a uniformly random start is [Σ g_i² / (2 W)], where the gaps
    [g_i] include the lead-in [t_1 - 0] and tail [W - t_m]. Pairs that
    never meet get infinite delay. The routing metric is the all-pairs
    shortest path over these edge delays (Floyd-Warshall), i.e. the
    minimum expected end-to-end delay through any relay chain. *)

val delay_matrix : Psn_trace.Trace.t -> float array array
(** [d.(a).(b)]: expected wait for the pair's next meeting, [infinity]
    if they never meet; the diagonal is 0 by convention.
    O(n² + contacts). *)

val routing_costs : Psn_trace.Trace.t -> float array array
(** [costs.(i).(j)]: minimum expected delay from [i] to [j] over any
    relay sequence — the Dynamic Programming algorithm's routing
    table. *)
