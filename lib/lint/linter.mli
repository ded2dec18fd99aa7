(** The determinism-contract pass: read-only [Ast_iterator] traversal
    of parsed sources, reporting {!Rules} violations as
    {!Diagnostic.t} values.

    Suppression: a finding is dropped when its rule appears in a
    [\[@@@lint.allow "rule"\]] floating attribute anywhere in the same
    file, in a [\[@lint.allow "rule"\]] attribute on an enclosing
    expression or binding, or in the {!Config.t} allowlist for the
    file's path. Several rules may share one attribute, separated by
    commas or spaces. *)

val analyze : config:Config.t -> string list -> Diagnostic.t list * Callgraph.t
(** Lint every [.ml]/[.mli] under the given files and directories
    (recursively; entries starting with ['.'] or ['_'] are skipped):
    the per-file syntactic rules, then the whole-program passes over
    the call graph — {!Effects}, {!Domain_safety}, {!Hotpath},
    {!Dead_export}. Findings are sorted by (file, line, col, rule).

    One sequential pass, one file at a time, in sorted path order.
    Findings, and the returned graph, do not depend on the order the
    paths are given in or on readdir order. *)
