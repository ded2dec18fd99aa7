(** Interprocedural effect-taint propagation (rule [effect-taint]).

    A definition is tainted with a kind from {!Rules.taint_kinds}
    when its body reads the corresponding ambient source, or calls —
    through any number of graph edges — a definition that does.
    Files declared as a [\[boundary\]] for a kind in lint.toml absorb
    that kind: their definitions neither report it nor pass it on.
    In-file [\[@lint.allow\]] suppressions silence the report at one
    site but never stop propagation.

    Findings land on every call edge into a tainted definition, with
    the witness chain down to the raw source in the message. The
    witnesses are {!Callgraph.witnesses} keyed by the kind's index in
    {!Rules.taint_kinds}, so output is deterministic: sorted edge
    order, first witness wins. *)

val run : config:Config.t -> Callgraph.t -> Diagnostic.t list
