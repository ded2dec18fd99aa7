(** Domain-safety pass (rule [domain-race]).

    Flags [Parallel.map*] call sites whose task (or [~env]) argument
    can reach — through any number of call-graph edges — a top-level
    mutable binding (ref, Hashtbl.t, Buffer.t, Queue/Stack, bytes,
    array) that is not sanctioned: [Atomic.make] bindings are never
    registered as mutable, and lint.toml's [\[ownership\]] table
    declares per-domain ownership for specific binding names (or
    ["*"]) under a path.

    When a task argument references a local value the resolver cannot
    see into, the enclosing definition conservatively stands in as a
    root. Findings land on the fan-out site with the witness chain to
    the mutable in the message. Reachability is {!Callgraph.witnesses}
    keyed by the mutable's node id, so output is deterministic. *)

val run : config:Config.t -> Callgraph.t -> Diagnostic.t list
