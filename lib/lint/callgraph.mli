(** Whole-program call graph over the repository's own sources.

    Built in two stages: {!collect_file} walks one parse tree into
    per-file facts (definitions, references, effect sources,
    allocations, [Parallel.map*] sites, module aliases, opens, opaque
    module uses);
    {!build} resolves the references of every file against the whole
    set into a graph with stable, deterministic node numbering (files
    in the order given, definitions in source order).

    Resolution is syntactic and untyped; the approximations are
    spelled out in DESIGN.md "Interprocedural enforcement". All
    outputs are fully sorted, so the same tree produces the same
    bytes regardless of how the per-file walks were scheduled. *)

type source = { s_kind : string; s_what : string; s_loc : Location.t }
(** An ambient-effect read: [s_kind] is one of {!Rules.taint_kinds},
    [s_what] the path as written (e.g. ["Unix.gettimeofday"]). *)

type alloc = { a_what : string; a_loc : Location.t; a_allows : string list }
(** An allocation site (closure, cons, tuple, known-allocating stdlib
    call, polymorphic compare), with the [lint.allow] rules in scope. *)

type file_facts
(** The facts of one parsed file, before resolution. *)

val collect_file : path:string -> Parsetree.structure -> file_facts
(** Walk one parse tree. Pure per-file: safe to run concurrently for
    different files. *)

type node = {
  n_id : int;
  n_file : string;
  n_name : string;  (** module-qualified: ["Engine.run"] *)
  n_local : string;  (** path within the file: ["run"], ["Sink.null"] *)
  n_line : int;
  n_col : int;
  n_hot : bool;  (** carries a [\[@psn.hot\]] annotation *)
  n_mutable : string option;
      (** [Some kind] when the binding creates shared mutable state
          (ref, Hashtbl.t, Buffer.t, array, ...) at top level *)
  n_allows : string list;  (** [lint.allow] rules in scope at the binding *)
  n_sources : source list;
  n_allocs : alloc list;
}

type edge = {
  e_from : int;
  e_to : int;
  e_loc : Location.t;  (** the reference site in the caller *)
  e_allows : string list;  (** [lint.allow] rules in scope at the site *)
}

type rsite = {
  r_node : int;  (** definition enclosing the [Parallel.map*] call *)
  r_fn : string;  (** [map_traced], [map_env], [map_result] *)
  r_loc : Location.t;
  r_allows : string list;
  r_roots : int list;  (** resolved task/env references, sorted *)
  r_fallback : bool;
      (** a task/env reference was a local name the resolver cannot
          see into; the enclosing definition stands in as a root *)
}

type t = {
  nodes : node array;
  edges : edge list;  (** sorted by (caller file, line, col, callee) *)
  sites : rsite list;  (** sorted by (file, line, col) *)
  top_uses : (string * int) list;
      (** definitions a module expression outside any definition uses
          opaquely (a functor application or argument, an [include]),
          with the using file; sorted *)
  n_files : int;
}

val is_entry : node -> bool
(** A module initialiser ([let () = ...] or a bare top-level
    expression) rather than a named definition. *)

val build : file_facts list -> t
(** Resolve and number. The input order fixes node ids: pass files
    sorted by path. *)

val loc_line : Location.t -> int

val loc_col : Location.t -> int

val pp_json : Format.formatter -> t -> unit
(** Stable machine-readable export ([psn_lint --graph json]). *)

val pp_dot : Format.formatter -> t -> unit
(** Graphviz export ([psn_lint --graph dot]): hot nodes shaded,
    mutable bindings red, parallel fan-outs dashed. *)
