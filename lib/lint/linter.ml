(* The determinism-contract pass: a read-only Ast_iterator walk over
   each source file. No typing information is available (and none is
   needed for the contract as stated): every rule is syntactic, which
   keeps the pass fast, dependency-free and — because it never guesses
   — conservative. The known blind spot, comparison operators applied
   to two variables of a boxed type, is documented in DESIGN.md. *)

type state = {
  mutable diags : Diagnostic.t list;
  mutable file_allows : string list;  (* from [@@@lint.allow] anywhere in the file *)
  mutable scope_allows : string list list;  (* stack, innermost first *)
  config : Config.t;
  path : string;
}

let suppressed st rule =
  List.exists (String.equal rule) st.file_allows
  || List.exists (List.exists (String.equal rule)) st.scope_allows
  || Config.allowed st.config ~path:st.path ~rule

let emit st loc ~rule ~message =
  if not (suppressed st rule) then
    st.diags <- Diagnostic.of_location loc ~rule ~message :: st.diags

(* ------------------------------------------------------------------ *)
(* Suppression attributes                                             *)

(* A malformed payload or an unknown rule name is itself a finding — a
   typo in a suppression must never silently widen it. *)
let allows_of_attrs st (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      match Callgraph.allow_names a with
      | Some names ->
        List.iter
          (fun name ->
            if not (Rules.is_known name) then
              emit st a.Parsetree.attr_loc ~rule:"bad-suppression"
                ~message:(Printf.sprintf "lint.allow names unknown rule %S" name))
          names;
        List.filter Rules.is_known names
      | None ->
        emit st a.Parsetree.attr_loc ~rule:"bad-suppression"
          ~message:"lint.allow expects a string payload, e.g. [@lint.allow \"failwith\"]";
        [])
    attrs

let with_scope st allows f =
  match allows with
  | [] -> f ()
  | _ ->
    st.scope_allows <- allows :: st.scope_allows;
    Fun.protect ~finally:(fun () ->
        st.scope_allows <- (match st.scope_allows with [] -> [] | _ :: tl -> tl))
      f

(* ------------------------------------------------------------------ *)
(* Identifier rules                                                   *)

(* The syntactic finding for an ambient read whose taint kind is also
   a rule name; ambient-env is left to the taint pass. *)
let ambient_rule parts =
  match Rules.ambient_kind parts with
  | Some ("ambient-random" as kind) ->
    Some (kind, "the ambient Random generator is shared global state; use a Psn_prng.Rng stream")
  | Some ("wall-clock" as kind) -> Some (kind, "results must not depend on when the process ran")
  | Some ("hash-order-iteration" as kind) ->
    Some
      ( kind,
        Printf.sprintf "%s enumerates bindings in hash order; sort via Psn_det.Det_tbl instead"
          (String.concat "." parts) )
  | Some ("hashtbl-hash" as kind) ->
    Some
      ( kind,
        Printf.sprintf "%s walks value representations; only Faults' keyed hashing may use it"
          (String.concat "." parts) )
  | Some _ | None -> None

(* Dotted identifier -> (rule, message). *)
let ident_rule parts =
  match Rules.strip_stdlib parts with
  | [ "Random"; "self_init" ] | [ "Random"; "State"; "make_self_init" ] ->
    Some
      ( "random-self-init",
        "seeding from the environment makes runs unreproducible; thread a Psn_prng.Rng seed" )
  | "Marshal" :: _ ->
    Some
      ( "marshal",
        "marshalled bytes are not stable across compiler versions; use Psn_store's codec" )
  | [ ("output_value" | "input_value") as fn ] ->
    Some
      ( "marshal",
        Printf.sprintf
          "%s is Marshal in disguise; use Psn_store's versioned codec for persistence" fn )
  | [ "Obj"; "magic" ] -> Some ("obj-magic", "Obj.magic defeats the type system")
  | [ "failwith" ] ->
    Some ("failwith", "raise Invalid_argument or return a typed error instead of Failure")
  | [ ( "print_string" | "print_char" | "print_bytes" | "print_int" | "print_float"
      | "print_endline" | "print_newline" ) ]
  | [ "Printf"; "printf" ]
  | [ "Format";
      ( "printf" | "print_string" | "print_char" | "print_int" | "print_float"
      | "print_newline" | "print_space" | "std_formatter" ) ] ->
    Some ("stdout-print", "library code must return values or write to a caller's formatter")
  | [ (("compare" | "min" | "max") as fn) ] ->
    Some
      ( "polymorphic-compare",
        Printf.sprintf
          "polymorphic %s: use Float.%s/Int.%s or an explicit comparator" fn fn fn )
  | parts -> ambient_rule parts

(* ------------------------------------------------------------------ *)
(* Comparison operators                                               *)

(* Syntactic evidence that an operand of =, <>, <, ... is a boxed
   structure on which polymorphic comparison is fragile. *)
let rec structured_evidence (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_construct ({ Location.txt = Longident.Lident "[]"; _ }, _)
  | Parsetree.Pexp_construct ({ Location.txt = Longident.Lident "::"; _ }, _) ->
    Some "a list (use List.is_empty or List.compare)"
  | Parsetree.Pexp_construct ({ Location.txt = Longident.Lident "None"; _ }, _)
  | Parsetree.Pexp_construct ({ Location.txt = Longident.Lident "Some"; _ }, _) ->
    Some "an option (use Option.is_none/Option.is_some/Option.equal)"
  | Parsetree.Pexp_tuple _ -> Some "a tuple (compare components explicitly)"
  | Parsetree.Pexp_record _ -> Some "a record (derive or write a comparator)"
  | Parsetree.Pexp_array _ -> Some "an array (compare elements explicitly)"
  | Parsetree.Pexp_constraint (inner, _) -> structured_evidence inner
  | _ -> None

let eq_evidence (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_constant (Parsetree.Pconst_float _) ->
    Some "a float (use Float.equal, which also pins NaN semantics)"
  | Parsetree.Pexp_constant (Parsetree.Pconst_string _) -> Some "a string (use String.equal)"
  | _ -> structured_evidence e

let check_operator st loc op (args : (Asttypes.arg_label * Parsetree.expression) list) =
  let operands = List.filter_map (function Asttypes.Nolabel, e -> Some e | _ -> None) args in
  let first_evidence evidence_of =
    List.fold_left
      (fun acc e -> match acc with Some _ -> acc | None -> evidence_of e)
      None operands
  in
  match op with
  | "==" | "!=" ->
    emit st loc ~rule:"physical-equality"
      ~message:
        (Printf.sprintf "(%s) compares physical identity; use typed structural equality" op)
  | "=" | "<>" -> (
    match first_evidence eq_evidence with
    | Some what ->
      emit st loc ~rule:"polymorphic-compare"
        ~message:(Printf.sprintf "polymorphic (%s) on %s" op what)
    | None -> ())
  | "<" | ">" | "<=" | ">=" -> (
    match first_evidence structured_evidence with
    | Some what ->
      emit st loc ~rule:"polymorphic-compare"
        ~message:(Printf.sprintf "polymorphic (%s) on %s" op what)
    | None -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* The iterator                                                       *)

(* In [try ... with] a bare [_] is a catch-all; in [match ... with]
   only the [exception _] form is (a plain [_] there is an ordinary
   value wildcard). *)
let is_catch_all ~in_try (c : Parsetree.case) =
  Option.is_none c.Parsetree.pc_guard
  &&
  match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
  | Parsetree.Ppat_any -> in_try
  | Parsetree.Ppat_exception { Parsetree.ppat_desc = Parsetree.Ppat_any; _ } -> true
  | _ -> false

let make_iterator st =
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    let allows = allows_of_attrs st e.Parsetree.pexp_attributes in
    with_scope st allows (fun () ->
        (match e.Parsetree.pexp_desc with
        | Parsetree.Pexp_ident { Location.txt = lid; loc } -> (
          match ident_rule (Longident.flatten lid) with
          | Some (rule, message) -> emit st loc ~rule ~message
          | None -> ())
        | Parsetree.Pexp_apply
            ( { Parsetree.pexp_desc = Parsetree.Pexp_ident { Location.txt = Longident.Lident op; loc }; _ },
              args ) ->
          check_operator st loc op args
        | Parsetree.Pexp_try (_, cases) | Parsetree.Pexp_match (_, cases) ->
          let in_try =
            match e.Parsetree.pexp_desc with Parsetree.Pexp_try _ -> true | _ -> false
          in
          List.iter
            (fun c ->
              if is_catch_all ~in_try c then
                emit st c.Parsetree.pc_lhs.Parsetree.ppat_loc ~rule:"catch-all-exception"
                  ~message:
                    "catch-all handler swallows every exception; match the ones this \
                     expression can raise")
            cases
        | _ -> ());
        default_iterator.expr it e)
  in
  let value_binding it (vb : Parsetree.value_binding) =
    let allows = allows_of_attrs st vb.Parsetree.pvb_attributes in
    with_scope st allows (fun () -> default_iterator.value_binding it vb)
  in
  let structure_item it (si : Parsetree.structure_item) =
    match si.Parsetree.pstr_desc with
    | Parsetree.Pstr_attribute _ ->
      (* Floating attributes were already folded into [file_allows] by
         the pre-scan; nothing to traverse below them. *)
      ()
    | Parsetree.Pstr_eval (_, attrs) ->
      let allows = allows_of_attrs st attrs in
      with_scope st allows (fun () -> default_iterator.structure_item it si)
    | _ -> default_iterator.structure_item it si
  in
  let signature_item it (si : Parsetree.signature_item) =
    match si.Parsetree.psig_desc with
    | Parsetree.Psig_attribute _ -> ()
    | _ -> default_iterator.signature_item it si
  in
  { default_iterator with expr; value_binding; structure_item; signature_item }

(* File-wide suppressions apply to the whole file, wherever the
   [@@@lint.allow] line sits, so they are collected before the walk. *)
let floating_attrs_of_structure (str : Parsetree.structure) =
  List.filter_map
    (fun (si : Parsetree.structure_item) ->
      match si.Parsetree.pstr_desc with Parsetree.Pstr_attribute a -> Some a | _ -> None)
    str

let floating_attrs_of_signature (sg : Parsetree.signature) =
  List.filter_map
    (fun (si : Parsetree.signature_item) ->
      match si.Parsetree.psig_desc with Parsetree.Psig_attribute a -> Some a | _ -> None)
    sg

(* ------------------------------------------------------------------ *)
(* Per-file driver                                                    *)

let syntax_diagnostic path exn =
  match Location.error_of_exn exn with
  | Some (`Ok report) ->
    let main = report.Location.main in
    let message = Format.asprintf "%t" main.Location.txt in
    Diagnostic.of_location main.Location.loc ~rule:"syntax-error" ~message
  | Some `Already_displayed | None ->
    Diagnostic.make ~file:path ~line:1 ~col:0 ~rule:"syntax-error"
      ~message:"source file could not be parsed"

let has_mli path = Sys.file_exists (Filename.remove_extension path ^ ".mli")

(* The per-file stage: parse, then syntactic rules plus call-graph
   fact collection. Only the facts outlive the call; the parse tree
   does not. *)
let analyze_file ~config path : Diagnostic.t list * Callgraph.file_facts option =
  let st = { diags = []; file_allows = []; scope_allows = []; config; path } in
  let it = make_iterator st in
  match
    match Filename.extension path with
    | ".ml" ->
      let str = Pparse.parse_implementation ~tool_name:"psn_lint" path in
      st.file_allows <- allows_of_attrs st (floating_attrs_of_structure str);
      it.Ast_iterator.structure it str;
      if not (has_mli path || suppressed st "missing-mli") then
        st.diags <-
          Diagnostic.make ~file:path ~line:1 ~col:0 ~rule:"missing-mli"
            ~message:"module has no interface; add a .mli stating its contract"
          :: st.diags;
      Some (Callgraph.collect_file ~path str)
    | ".mli" ->
      let sg = Pparse.parse_interface ~tool_name:"psn_lint" path in
      st.file_allows <- allows_of_attrs st (floating_attrs_of_signature sg);
      it.Ast_iterator.signature it sg;
      None
    | _ -> None
  with
  | facts -> (st.diags, facts)
  | exception ((Syntaxerr.Error _ | Lexer.Error _) as exn) -> ([ syntax_diagnostic path exn ], None)

(* ------------------------------------------------------------------ *)
(* Tree walking                                                       *)

let is_source path =
  match Filename.extension path with ".ml" | ".mli" -> true | _ -> false

let hidden name = String.length name = 0 || name.[0] = '.' || name.[0] = '_'

(* Directory entries are sorted so the walk order (and hence the
   report order before the final sort, and any tie-breaking) never
   depends on readdir order — the linter honours its own contract. *)
let rec gather path acc =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc entry ->
           if hidden entry then acc else gather (Filename.concat path entry) acc)
         acc
  else if is_source path then path :: acc
  else acc

let analyze ~config paths =
  let files = List.fold_left (fun acc p -> gather p acc) [] paths in
  let results = List.map (analyze_file ~config) (List.sort_uniq String.compare files) in
  let per_file = List.concat_map fst results in
  let facts = List.filter_map snd results in
  let graph = Callgraph.build facts in
  let inter =
    Effects.run ~config graph
    @ Domain_safety.run ~config graph
    @ Hotpath.run ~config graph
    @ Dead_export.run ~config graph
  in
  (List.sort Diagnostic.compare (per_file @ inter), graph)
