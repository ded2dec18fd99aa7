(** Hot-path allocation pass (rule [hot-path-alloc]).

    Checks every [\[@psn.hot\]]-annotated definition — transitively,
    through the call graph — for closure/list/tuple/record/boxed
    allocation, lazy blocks, string building, known-allocating stdlib
    calls and polymorphic compare. Direct allocations are reported at
    the allocation site; allocating callees are reported at the hot
    function's call site with the witness chain in the message.

    Suppression: [\[@lint.allow "hot-path-alloc"\]] at an allocation
    site sanctions it for every hot caller (stops propagation); at a
    call site it sanctions that one edge. Reachability is
    {!Callgraph.witnesses} under key [0], so output is deterministic. *)

val run : config:Config.t -> Callgraph.t -> Diagnostic.t list
