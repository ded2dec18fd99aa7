(** A single linter finding, anchored to a source position. *)

type t = { file : string; line : int; col : int; rule : string; message : string }

val make : file:string -> line:int -> col:int -> rule:string -> message:string -> t

val of_location : Location.t -> rule:string -> message:string -> t
(** Anchor a finding at the start of a compiler-libs location. *)

val compare : t -> t -> int
(** Total order: (file, line, col, rule), all monomorphic. *)

val pp : Format.formatter -> t -> unit
(** Human format: [file:line:col: [rule] message]. *)

val to_json : t -> Psn_json.Json.t
(** One finding as a JSON object. *)
