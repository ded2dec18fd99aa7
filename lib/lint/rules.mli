(** The rule registry: every contract the linter enforces, with the
    rationale the CLI prints for [--rules]. *)

type t = { name : string; summary : string; rationale : string }

val all : t list
(** Every rule, in documentation order. *)

val find : string -> t option

val is_known : string -> bool
(** Whether [name] names a registered rule (used to reject typos in
    suppression attributes and lint.toml). *)

val taint_kinds : string list
(** The effect kinds {!Effects} propagates interprocedurally, in
    documentation order; [\[boundary\]] entries in lint.toml must name
    kinds from this list. *)

val is_taint_kind : string -> bool

val strip_stdlib : string list -> string list
(** Drop a leading ["Stdlib"] from a dotted path. *)

val ambient_kind : string list -> string option
(** The kind from {!taint_kinds} of the ambient source a dotted path
    (already through {!strip_stdlib}) reads, e.g. ["wall-clock"] for
    [Unix.times]. *)

val pp_list : Format.formatter -> unit -> unit
(** Render the registry, one rule per entry, for [--rules]. *)
