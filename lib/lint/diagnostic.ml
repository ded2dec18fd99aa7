type t = { file : string; line : int; col : int; rule : string; message : string }

let make ~file ~line ~col ~rule ~message = { file; line; col; rule; message }

let of_location (loc : Location.t) ~rule ~message =
  let pos = loc.Location.loc_start in
  {
    file = pos.Lexing.pos_fname;
    line = pos.Lexing.pos_lnum;
    col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
    rule;
    message;
  }

(* Findings are reported in (file, line, col, rule) order so the output
   is stable however the tree was walked. *)
let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let pp ppf t =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" t.file t.line t.col t.rule t.message

let to_json t =
  Psn_json.Json.(
    Obj
      [
        ("file", Str t.file);
        ("line", int t.line);
        ("col", int t.col);
        ("rule", Str t.rule);
        ("message", Str t.message);
      ])
