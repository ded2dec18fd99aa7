(** Dead-export pass (rule [dead-export]).

    Reports every definition under lib/ that no root reaches through
    the call graph. Roots are the definitions walked outside lib/,
    lib/'s module initialisers, and the definitions module-level code
    uses opaquely ({!Callgraph.t.top_uses}). A walk with no definition
    or module-level use outside lib/ reports nothing.

    Suppression: [\[@lint.allow "dead-export"\]] on the binding (or
    file-wide, or a lint.toml [allow] entry) silences that definition
    only; it does not make the definition a root. Findings sit at the
    definition and are deterministic. *)

val run : config:Config.t -> Callgraph.t -> Diagnostic.t list
