type t = { name : string; summary : string; rationale : string }

(* The determinism contract, as machine-checkable rules. Keep this list
   in sync with the "Static enforcement of the determinism contract"
   section of DESIGN.md: the doc explains each rule at length, this
   table is what the CLI prints for [--rules]. *)
let all =
  [
    {
      name = "random-self-init";
      summary = "Random.self_init seeds the ambient PRNG from the environment";
      rationale = "A run seeded from the OS entropy pool can never be replayed; all randomness must flow from explicit Psn_prng seeds.";
    };
    {
      name = "ambient-random";
      summary = "use of the ambient Stdlib.Random generator";
      rationale = "Stdlib.Random hides one global mutable state behind every call site, so results depend on call order across the whole program; use Psn_prng.Rng streams instead.";
    };
    {
      name = "wall-clock";
      summary = "reading the wall clock (Unix.gettimeofday, Unix.time, Sys.time, ...)";
      rationale = "Simulation results must be a function of the trace and the seeds, never of when the process ran; the one sanctioned clock read is lib/telemetry/clock.ml (allowlisted in lint.toml), which everything else must go through.";
    };
    {
      name = "hash-order-iteration";
      summary = "Hashtbl.iter / Hashtbl.fold enumerate bindings in hash order";
      rationale = "Hash order is an implementation detail that changes across compiler versions and key layouts; iterate through Psn_det.Det_tbl, which sorts bindings by key first.";
    };
    {
      name = "hashtbl-hash";
      summary = "Hashtbl.hash / seeded_hash outside the Faults keyed-hash kernel";
      rationale = "The polymorphic hash walks representations, so a layout change silently re-keys everything; only Faults' documented keyed hashing may rely on it.";
    };
    {
      name = "polymorphic-compare";
      summary = "polymorphic compare/min/max, or =/<>/ordering on structured operands";
      rationale = "Polymorphic comparison walks representations: it is slow, breaks on functional values, and its order on floats (NaN) and structures is too easy to change by refactoring; use Float.compare, Int.compare, String.equal, Option.is_none, List.is_empty or a derived comparator.";
    };
    {
      name = "physical-equality";
      summary = "== or != on values that may not be physically shared";
      rationale = "Physical equality on boxed values depends on sharing, which optimisation levels and copying change freely; use structural, typed equality.";
    };
    {
      name = "catch-all-exception";
      summary = "try ... with _ -> swallows every exception";
      rationale = "A catch-all hides Out_of_memory, Stack_overflow and genuine bugs as ordinary control flow; match the exceptions the expression can actually raise.";
    };
    {
      name = "failwith";
      summary = "failwith raises the stringly-typed Failure";
      rationale = "Library validation errors must be Invalid_argument or a typed Error so CLI error paths stay one-line-to-stderr; Failure is indistinguishable from an internal bug.";
    };
    {
      name = "marshal";
      summary = "Marshal (or output_value/input_value) serialization";
      rationale = "Marshalled bytes depend on the compiler version and on value sharing, so they are neither canonical nor stable across builds; persist results through Psn_store's versioned, CRC-checked codec instead.";
    };
    {
      name = "obj-magic";
      summary = "Obj.magic defeats the type system";
      rationale = "Any unsoundness can surface as silent memory corruption, which is the worst possible nondeterminism.";
    };
    {
      name = "stdout-print";
      summary = "printing to stdout from library code";
      rationale = "Library results must come back as values or go through a caller-supplied formatter; stdout belongs to the executables.";
    };
    {
      name = "missing-mli";
      summary = ".ml without a corresponding .mli";
      rationale = "An unconstrained module leaks every helper as public API; interfaces are where the determinism contract of a module is stated.";
    };
    {
      name = "syntax-error";
      summary = "source file does not parse";
      rationale = "A file the linter cannot read is a file the contract cannot cover.";
    };
    {
      name = "bad-suppression";
      summary = "malformed lint.allow attribute or unknown rule name";
      rationale = "A typo in a suppression must surface as a finding, never as a silently widened allowance.";
    };
    {
      name = "effect-taint";
      summary = "call site transitively reaches ambient nondeterminism (interprocedural)";
      rationale = "A function that calls — through any number of layers — ambient randomness, the wall clock, hash-order iteration, the polymorphic hash or process environment state is itself nondeterministic, even when the offending file suppressed the direct syntactic finding; callers are flagged unless the effect is absorbed by a sanctioned [boundary] in lint.toml (e.g. lib/telemetry/clock.ml for wall-clock).";
    };
    {
      name = "domain-race";
      summary = "task passed to Parallel.map* reaches shared top-level mutable state";
      rationale = "Top-level refs, Hashtbl.t, Buffer.t or arrays reached by a function fanned out over domains are written by every worker at once — the exact failure mode the engine's per-domain scratch ownership exists to prevent. Give each domain its own state through ~env, use Atomic, or declare per-domain ownership in lint.toml's [ownership] table.";
    };
    {
      name = "hot-path-alloc";
      summary = "allocation or polymorphic call reachable from a [@psn.hot] function";
      rationale = "Functions annotated [@psn.hot] (engine drain kernels, enumeration inner loops) are checked transitively for closure/list/tuple/record allocation and polymorphic comparison: a helper that conses in a loop three modules away still costs the hot path. Suppressing at the allocation site sanctions it for every hot caller; suppressing at the call site sanctions one edge.";
    };
    {
      name = "dead-export";
      summary = "lib/ definition reached from no walked file outside lib/ (interprocedural)";
      rationale = "Code nothing calls still has to be read, documented and kept compiling, and its comments drift out of date unchecked. The roots are the walked files outside lib/; the repository's lint run walks the executables, benchmark, examples and tools but not test/, so test-only code counts as dead. A lib-only walk reports nothing. Delete the definition, or keep it with an in-file [@lint.allow \"dead-export\"] and a reason: a reference implementation tests compare against, a test hook that resets process-global state, or a named input of an open ROADMAP item.";
    };
  ]

(* Effect kinds the interprocedural taint pass propagates. Boundary
   declarations in lint.toml ([boundary] section) are validated against
   this list, exactly as [allow] entries are validated against the rule
   names above. *)
let taint_kinds =
  [ "ambient-random"; "wall-clock"; "hash-order-iteration"; "hashtbl-hash"; "ambient-env" ]

let is_taint_kind name = List.exists (String.equal name) taint_kinds

let strip_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | parts -> parts

(* The one table of ambient sources: the syntactic pass reports the
   kinds that are also rule names, the taint pass seeds from all. *)
let ambient_kind = function
  | "Random" :: _ -> Some "ambient-random"
  | [ "Unix"; ("gettimeofday" | "time" | "localtime" | "gmtime" | "mktime" | "times") ]
  | [ "Sys"; "time" ] ->
    Some "wall-clock"
  | [ "Hashtbl"; ("iter" | "fold") ] -> Some "hash-order-iteration"
  | [ "Hashtbl"; ("hash" | "seeded_hash" | "hash_param") ] -> Some "hashtbl-hash"
  | [ "Sys"; ("getenv" | "getenv_opt" | "getcwd" | "hostname") ]
  | [ "Unix";
      ("getenv" | "environment" | "unsafe_environment" | "getpid" | "getppid" | "getcwd"
      | "gethostname") ] ->
    Some "ambient-env"
  | _ -> None

let find name = List.find_opt (fun r -> String.equal r.name name) all

let is_known name = Option.is_some (find name)

let pp_list ppf () =
  List.iter
    (fun r -> Format.fprintf ppf "%-22s %s@.%22s   %s@." r.name r.summary "" r.rationale)
    all
