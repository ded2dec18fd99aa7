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
    outputs are fully sorted, so the same files given in the same
    order produce the same bytes. *)

type source = { s_kind : string; s_what : string }
(** An ambient-effect read: [s_kind] is one of {!Rules.taint_kinds},
    [s_what] the path as written (e.g. ["Unix.gettimeofday"]). *)

type alloc = { a_what : string; a_loc : Location.t; a_allows : string list }
(** An allocation site (closure, cons, tuple, known-allocating stdlib
    call, polymorphic compare), with the [lint.allow] rules in scope. *)

type file_facts
(** The facts of one parsed file, before resolution. *)

val collect_file : path:string -> Parsetree.structure -> file_facts
(** Walk one parse tree. Pure per file: the facts depend on that
    file alone. *)

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
}

val is_entry : node -> bool
(** A module initialiser ([let () = ...] or a bare top-level
    expression) rather than a named definition. *)

val build : file_facts list -> t
(** Resolve and number. The input order fixes node ids: pass files
    sorted by path. *)

val allow_names : Parsetree.attribute -> string list option
(** The rule names a [\[@lint.allow "..."\]] attribute lists, as
    written (commas or spaces separate them); [Some \[\]] for any other
    attribute, [None] for a malformed payload. *)

(** {2 Witnesses}

    The one fixpoint the {!Effects}, {!Hotpath} and {!Domain_safety}
    passes share. *)

module Imap : Map.S with type key = int

type 'a witness =
  | Seed of 'a  (** the node itself holds the key *)
  | Via of int * Location.t  (** through this callee, called at this site *)

val witnesses :
  t -> seeds:(node -> (int * 'a) list) -> blocked:(edge -> int -> bool) -> 'a witness Imap.t array
(** For each node id, the first witness that it holds each int key.
    [seeds] gives a node's own keys (the first of a key wins). Keys
    then flow toward callers: every edge, in sorted order, hands the
    caller each callee key it lacks unless [blocked] says the edge
    stops that key, and the sweep repeats until it changes nothing. *)

val chain : t -> 'a witness Imap.t array -> seed:('a -> string option) -> int -> int -> string
(** [chain g table ~seed start key] renders the witness path from
    [start], which must hold [key], as ["A.f -> B.g -> <seed text>"],
    cut with ["..."] after 16 hops. *)

val loc_line : Location.t -> int

val pp_json : Format.formatter -> t -> unit
(** Stable machine-readable export ([psn_lint --graph json]). *)

val pp_dot : Format.formatter -> t -> unit
(** Graphviz export ([psn_lint --graph dot]): hot nodes shaded,
    mutable bindings red, parallel fan-outs dashed. *)
