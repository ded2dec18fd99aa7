type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Obj of (string * t) list
  | Arr of t list
  | Rows of t list

let int i = Num (string_of_int i)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let items b lead close add_item xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b lead;
      add_item x)
    xs;
  Buffer.add_string b close

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (Bool.to_string v)
  | Num s -> Buffer.add_string b s
  | Str s -> add_string b s
  | Obj members ->
    Buffer.add_char b '{';
    items b "" "}"
      (fun (k, v) ->
        add_string b k;
        Buffer.add_char b ':';
        add b v)
      members
  | Arr vs ->
    Buffer.add_char b '[';
    items b "" "]" (add b) vs
  | Rows vs ->
    Buffer.add_char b '[';
    items b "\n  " "\n]" (add b) vs

let to_string v =
  let b = Buffer.create 1024 in
  add b v;
  Buffer.contents b

exception Fail of int * string

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false
let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

(* Recursive descent. [peek] reads NUL past the end, which no rule
   accepts outside a string, and strings check the end themselves. *)
let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise_notrace (Fail (!pos, msg)) in
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let skip_while p =
    while p (peek ()) do
      incr pos
    done
  in
  let eat c =
    let hit = Char.equal (peek ()) c in
    if hit then incr pos;
    hit
  in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let l = String.length word in
    if not (!pos + l <= n && String.equal (String.sub text !pos l) word) then fail "invalid literal";
    pos := !pos + l;
    v
  in
  let digits () =
    let start = !pos in
    skip_while (function '0' .. '9' -> true | _ -> false);
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    ignore (eat '-');
    if not (eat '0') then digits ();
    if eat '.' then digits ();
    if eat 'e' || eat 'E' then begin
      ignore (eat '+' || eat '-');
      digits ()
    end;
    Num (String.sub text start (!pos - start))
  in
  let hex4 () =
    let s = String.sub text !pos (Int.min 4 (n - !pos)) in
    if String.length s < 4 || not (String.for_all is_hex s) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ s)
  in
  (* A surrogate must be the high half of an escaped pair. *)
  let code_point () =
    let hi = hex4 () in
    if hi land 0xF800 <> 0xD800 then hi
    else begin
      let lo = if hi < 0xDC00 && eat '\\' && eat 'u' then hex4 () else 0 in
      if lo land 0xFC00 <> 0xDC00 then fail "unpaired surrogate";
      0x10000 + ((hi land 0x3FF) lsl 10) + (lo land 0x3FF)
    end
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      if Char.code c < 0x20 then fail "control character in string";
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        let e = peek () in
        incr pos;
        (match String.index_opt "\"\\/bfnrt" e with
        | Some i -> Buffer.add_char b "\"\\/\b\012\n\r\t".[i]
        | None when Char.equal e 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
        | None ->
          decr pos;
          fail "bad escape");
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  (* [depth] counts the arrays and objects around the value. *)
  let rec value depth =
    skip_while is_ws;
    let v =
      match peek () with
      | '{' ->
        Obj
          (elements depth '}' (fun () ->
               skip_while is_ws;
               let k = string () in
               skip_while is_ws;
               expect ':';
               (k, value (depth + 1))))
      | '[' -> Arr (elements depth ']' (fun () -> value (depth + 1)))
      | '"' -> Str (string ())
      | '-' | '0' .. '9' -> number ()
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> fail (if !pos < n then "expected a JSON value" else "unexpected end of input")
    in
    skip_while is_ws;
    v
  and elements : 'a. int -> char -> (unit -> 'a) -> 'a list =
   fun depth close item ->
    if depth >= 32 then fail "nesting too deep";
    incr pos;
    skip_while is_ws;
    let rec more acc =
      let acc = item () :: acc in
      if eat ',' then more acc
      else if eat close then List.rev acc
      else fail (Printf.sprintf "expected ',' or %C" close)
    in
    if eat close then [] else more []
  in
  match
    let v = value 0 in
    if !pos < n then fail "trailing bytes after the document";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "%s at byte %d" msg at)
