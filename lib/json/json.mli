(** The one JSON printer and parser: every JSON document psn writes is
    a {!t} printed by {!to_string}, and every one it checks is read by
    {!parse}. Strings are bytes: the printer copies every byte from
    0x20 up except quote and backslash, and the parser decodes
    [\uXXXX] to UTF-8 without validating bytes from 0x80 up. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** A literal the caller formatted; it must match the number grammar. *)
  | Str of string
  | Obj of (string * t) list
  | Arr of t list  (** Printed compact. *)
  | Rows of t list
      (** Printed one element per line, each after two spaces, with
          the closing bracket on a line of its own. {!parse} reads it
          back as {!Arr}. *)

val int : int -> t
(** [int i] is [Num (string_of_int i)]. *)

val to_string : t -> string
(** No whitespace outside {!Rows} and no trailing newline. Quote,
    backslash, newline, return and tab are escaped by name, other
    bytes below 0x20 as [\u00XX]. *)

val parse : string -> (t, string) result
(** Strict RFC 8259: only the three literals, the number grammar,
    the named escapes and [\uXXXX] (surrogates in pairs), no raw
    control characters in strings, no trailing bytes, at most 32
    nested arrays and objects. Never raises; an error names the
    reason and the byte offset. *)
