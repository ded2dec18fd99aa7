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

let split_rule_names s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter_map (fun name ->
         let name = String.trim name in
         if String.equal name "" then None else Some name)

(* [@lint.allow "rule"] / [@@@lint.allow "rule"]; several rules may be
   given in one string, separated by commas or spaces. Malformed
   payloads and unknown rule names are themselves findings — a typo in
   a suppression must never silently widen it. *)
let allows_of_attrs st (attrs : Parsetree.attributes) =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if not (String.equal a.Parsetree.attr_name.Location.txt "lint.allow") then []
      else
        match a.Parsetree.attr_payload with
        | Parsetree.PStr
            [
              {
                Parsetree.pstr_desc =
                  Parsetree.Pstr_eval
                    ( {
                        Parsetree.pexp_desc =
                          Parsetree.Pexp_constant (Parsetree.Pconst_string (s, _, _));
                        _;
                      },
                      _ );
                _;
              };
            ] ->
          let names = split_rule_names s in
          List.iter
            (fun name ->
              if not (Rules.is_known name) then
                emit st a.Parsetree.attr_loc ~rule:"bad-suppression"
                  ~message:(Printf.sprintf "lint.allow names unknown rule %S" name))
            names;
          List.filter Rules.is_known names
        | _ ->
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

let strip_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | parts -> parts

(* Dotted identifier -> (rule, message). *)
let ident_rule parts =
  match strip_stdlib parts with
  | [ "Random"; "self_init" ] | [ "Random"; "State"; "make_self_init" ] ->
    Some
      ( "random-self-init",
        "seeding from the environment makes runs unreproducible; thread a Psn_prng.Rng seed" )
  | "Random" :: _ ->
    Some
      ( "ambient-random",
        "the ambient Random generator is shared global state; use a Psn_prng.Rng stream" )
  | [ "Unix"; ("gettimeofday" | "time" | "localtime" | "gmtime" | "mktime") ]
  | [ "Sys"; "time" ] ->
    Some ("wall-clock", "results must not depend on when the process ran")
  | [ "Hashtbl"; (("iter" | "fold") as fn) ] ->
    Some
      ( "hash-order-iteration",
        Printf.sprintf
          "Hashtbl.%s enumerates bindings in hash order; sort via Psn_det.Det_tbl instead" fn )
  | [ "Hashtbl"; (("hash" | "seeded_hash" | "hash_param") as fn) ] ->
    Some
      ( "hashtbl-hash",
        Printf.sprintf
          "Hashtbl.%s walks value representations; only Faults' keyed hashing may use it" fn )
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
  | _ -> None

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
let prescan_floating st attrs_list =
  List.iter (fun attrs -> st.file_allows <- allows_of_attrs st attrs @ st.file_allows) attrs_list

let floating_attrs_of_structure (str : Parsetree.structure) =
  List.filter_map
    (fun (si : Parsetree.structure_item) ->
      match si.Parsetree.pstr_desc with
      | Parsetree.Pstr_attribute a -> Some [ a ]
      | _ -> None)
    str

let floating_attrs_of_signature (sg : Parsetree.signature) =
  List.filter_map
    (fun (si : Parsetree.signature_item) ->
      match si.Parsetree.psig_desc with
      | Parsetree.Psig_attribute a -> Some [ a ]
      | _ -> None)
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

(* Parsing and analysis are split: compiler-libs keeps global state in
   its lexer, so parse trees are produced sequentially, while the
   per-file walks (pure over their own state) can be fanned out over
   domains. *)
type parsed =
  | Impl of Parsetree.structure
  | Intf of Parsetree.signature
  | Broken of Diagnostic.t
  | Skipped

let parse_file path =
  match Filename.extension path with
  | ".ml" -> (
    match Pparse.parse_implementation ~tool_name:"psn_lint" path with
    | str -> Impl str
    | exception ((Syntaxerr.Error _ | Lexer.Error _) as exn) -> Broken (syntax_diagnostic path exn))
  | ".mli" -> (
    match Pparse.parse_interface ~tool_name:"psn_lint" path with
    | sg -> Intf sg
    | exception ((Syntaxerr.Error _ | Lexer.Error _) as exn) -> Broken (syntax_diagnostic path exn))
  | _ -> Skipped

(* The per-file stage: syntactic rules plus call-graph fact
   collection. Pure per file — safe to run concurrently for
   different files. *)
let analyze_parsed ~config path parsed : Diagnostic.t list * Callgraph.file_facts option =
  let st = { diags = []; file_allows = []; scope_allows = []; config; path } in
  let it = make_iterator st in
  match parsed with
  | Impl str ->
    prescan_floating st (floating_attrs_of_structure str);
    it.Ast_iterator.structure it str;
    if not (has_mli path || suppressed st "missing-mli") then
      st.diags <-
        Diagnostic.make ~file:path ~line:1 ~col:0 ~rule:"missing-mli"
          ~message:"module has no interface; add a .mli stating its contract"
        :: st.diags;
    (st.diags, Some (Callgraph.collect_file ~path str))
  | Intf sg ->
    prescan_floating st (floating_attrs_of_signature sg);
    it.Ast_iterator.signature it sg;
    (st.diags, None)
  | Broken d -> ([ d ], None)
  | Skipped -> ([], None)

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

(* Fan the per-file analyses over [jobs] domains. Scheduling is a
   bare atomic counter; results land in a slot per file, so the
   output order — and with it every downstream artifact — is
   identical for any [jobs]. *)
let parallel_map ~jobs f items =
  let n = Array.length items in
  let jobs = Int.max 1 (Int.min jobs n) in
  if jobs = 1 then Array.map f items
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (f items.(i));
        drain ()
      end
    in
    let workers = List.init (jobs - 1) (fun _ -> Domain.spawn drain) in
    drain ();
    List.iter Domain.join workers;
    Array.map Option.get results
  end

let analyze ~config ?(jobs = 1) paths =
  let files = List.fold_left (fun acc p -> gather p acc) [] paths in
  let files = List.sort_uniq String.compare files in
  (* Sequential parse (compiler-libs lexer state), parallel walks. *)
  let parsed = Array.of_list (List.map (fun p -> (p, parse_file p)) files) in
  let results = parallel_map ~jobs (fun (path, pr) -> analyze_parsed ~config path pr) parsed in
  let per_file = Array.to_list results |> List.concat_map fst in
  let facts = Array.to_list results |> List.filter_map snd in
  let graph = Callgraph.build facts in
  let inter =
    Effects.run ~config graph
    @ Domain_safety.run ~config graph
    @ Hotpath.run ~config graph
    @ Dead_export.run ~config graph
  in
  (List.sort Diagnostic.compare (per_file @ inter), graph)
