(** The determinism-contract pass: read-only [Ast_iterator] traversal
    of parsed sources, reporting {!Rules} violations as
    {!Diagnostic.t} values.

    Suppression: a finding is dropped when its rule appears in a
    [\[@@@lint.allow "rule"\]] floating attribute anywhere in the same
    file, in a [\[@lint.allow "rule"\]] attribute on an enclosing
    expression or binding, or in the {!Config.t} allowlist for the
    file's path. Several rules may share one attribute, separated by
    commas or spaces. *)

val analyze :
  config:Config.t -> ?jobs:int -> string list -> Diagnostic.t list * Callgraph.t
(** Lint every [.ml]/[.mli] under the given files and directories
    (recursively; entries starting with ['.'] or ['_'] are skipped):
    the per-file syntactic rules, then the whole-program passes over
    the call graph — {!Effects}, {!Domain_safety}, {!Hotpath},
    {!Dead_export}. Findings are sorted by (file, line, col, rule).

    [jobs] fans the per-file walks over that many domains; parsing
    stays sequential (compiler-libs keeps lexer state in globals).
    Findings, and the returned graph, are byte-identical for every
    [jobs] value: files are pre-sorted, results are slotted by file
    index, and everything downstream is sorted. *)
