(* Whole-program call graph over the repository's own sources.

   The graph is built syntactically from the same parse trees the
   per-file pass walks: every structure-level value binding becomes a
   node, every resolvable value path mentioned in its body becomes an
   edge. Resolution is module-qualified but untyped — a path [A.B.f]
   is matched against the tree's own files (module name = capitalised
   basename), through file-local module aliases ([module T = ...]),
   [open]s in scope, and library umbrella modules (a path segment that
   resolves to nothing in a matching file falls through to the next
   segment, which is how [Core.Engine.run] reaches
   [lib/sim/engine.ml]). Unresolvable paths — the stdlib, opam
   libraries, local variables — produce no edge.

   Known approximations (all conservative for the passes built on
   top, and documented in DESIGN.md "Interprocedural enforcement"):

   - local [let]s inside a function body are not nodes; their facts
     (effect sources, allocations, references) belong to the
     enclosing structure-level binding;
   - an unqualified identifier that shadows a same-file top-level
     binding resolves to that binding (scope is not tracked across
     arbitrary patterns);
   - referencing a function taints like calling it: a function value
     passed around is assumed to be eventually applied;
   - a module the resolver cannot see through (a functor and its
     arguments, an [include]d or packed module) references every
     definition under it;
   - anonymous [fun]s and named local functions both count as closure
     allocations (without flambda a local function that captures
     variables is built on every run of its enclosing body); only
     structure-level functions are free to reference. *)

(* ------------------------------------------------------------------ *)
(* Facts collected per file                                           *)

type call = {
  c_path : string list;  (* the dotted path as written *)
  c_mpath : string list;  (* submodule path of the call site within its file *)
  c_opens : string list list;  (* opens in scope, innermost first *)
  c_loc : Location.t;
  c_allows : string list;  (* lint.allow rules in scope at the site *)
  c_whole : bool;  (* a module used opaquely: every definition under it is referenced *)
}

type source = { s_kind : string; s_what : string; s_loc : Location.t }

type alloc = { a_what : string; a_loc : Location.t; a_allows : string list }

type psite = {
  p_fn : string;  (* map_traced | map_env | map_result *)
  p_loc : Location.t;
  p_allows : string list;
  p_refs : (string list * string list list) list;  (* (path, opens) from task + env args *)
  mutable p_fallback : bool;  (* a task/env reference was a local name we cannot see into *)
}

type def = {
  d_names : string list;  (* names bound by the binding ("f", or "a"/"b" for let a, b = ...) *)
  d_mpath : string list;  (* submodule path within the file, outermost first *)
  d_loc : Location.t;
  d_hot : bool;
  d_mutable : string option;  (* Some kind when the RHS creates shared mutable state *)
  d_allows : string list;  (* lint.allow rules in scope at the binding *)
  mutable d_calls : call list;
  mutable d_sources : source list;
  mutable d_allocs : alloc list;
  mutable d_psites : psite list;
}

type file_facts = {
  ff_path : string;
  ff_module : string;
  mutable ff_defs : def list;  (* reversed during collection, source order after *)
  mutable ff_aliases : (string * string list) list;  (* module alias -> target path *)
  mutable ff_top_uses : call list;  (* opaque module uses outside any definition *)
}

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                     *)

let strip_stdlib = function "Stdlib" :: (_ :: _ as rest) -> rest | parts -> parts

let module_name_of_path path =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename path))

let split_rule_names s =
  String.split_on_char ',' s
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter_map (fun name ->
         let name = String.trim name in
         if String.equal name "" then None else Some name)

(* lint.allow names on an attribute list. Malformed payloads are the
   per-file pass's business ([bad-suppression]); here they just yield
   no names. *)
let attr_allows (attrs : Parsetree.attributes) =
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
          split_rule_names s
        | _ -> [])
    attrs

let has_hot_attr (attrs : Parsetree.attributes) =
  List.exists
    (fun (a : Parsetree.attribute) -> String.equal a.Parsetree.attr_name.Location.txt "psn.hot")
    attrs

(* Effect sources: the ambient-nondeterminism reads the taint pass
   seeds from. Kind names are {!Rules.taint_kinds}. *)
let source_of parts =
  match strip_stdlib parts with
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

(* Stdlib entry points known to allocate, for the hot-path pass. The
   table is deliberately small and obvious — it exists to catch the
   list/"pretty" helpers that sneak onto kernels, not to model the
   runtime. *)
let allocator_of parts =
  let joined = String.concat "." parts in
  match strip_stdlib parts with
  | [ "ref" ] -> Some "ref cell"
  | [ ("compare" | "min" | "max") ] -> Some ("polymorphic " ^ joined)
  | [ "@" ] -> Some "list append (@)"
  | [ "^" ] -> Some "string concatenation (^)"
  | [ "Array";
      ("make" | "init" | "create_float" | "copy" | "append" | "sub" | "of_list" | "to_list"
      | "concat" | "map" | "mapi" | "make_matrix") ]
  | [ "Bytes"; ("create" | "make" | "copy" | "sub" | "of_string" | "to_string" | "extend" | "cat") ]
  | [ "List";
      ("map" | "mapi" | "rev" | "rev_map" | "rev_append" | "append" | "concat" | "concat_map"
      | "init" | "filter" | "filter_map" | "partition" | "sort" | "stable_sort" | "sort_uniq"
      | "split" | "combine" | "of_seq" | "cons") ]
  | [ "String"; ("make" | "init" | "sub" | "concat" | "map" | "split_on_char" | "of_seq") ]
  | [ "Buffer"; ("create" | "contents" | "to_bytes" | "sub") ]
  | [ "Hashtbl"; ("create" | "copy") ]
  | [ ("Queue" | "Stack"); "create" ]
  | [ "Printf"; "sprintf" ]
  | [ "Format"; ("asprintf" | "sprintf") ] ->
    Some (joined ^ " (allocates)")
  | _ -> None

(* Shared-mutable creations: what makes a top-level binding dangerous
   to reach from a parallel task. [Atomic.make] is deliberately
   absent — atomics are the sanctioned cross-domain cell. *)
let mutable_kind_of rhs =
  let rec peel (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_constraint (inner, _) -> peel inner
    | _ -> e
  in
  let e = peel rhs in
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_array (_ :: _) -> Some "array literal"
  | Parsetree.Pexp_apply
      ({ Parsetree.pexp_desc = Parsetree.Pexp_ident { Location.txt = lid; _ }; _ }, _) -> (
    match strip_stdlib (Longident.flatten lid) with
    | [ "ref" ] -> Some "ref"
    | [ "Hashtbl"; "create" ] -> Some "Hashtbl.t"
    | [ "Buffer"; "create" ] -> Some "Buffer.t"
    | [ "Queue"; "create" ] -> Some "Queue.t"
    | [ "Stack"; "create" ] -> Some "Stack.t"
    | [ "Bytes"; ("create" | "make" | "of_string") ] -> Some "Bytes.t"
    | [ "Array"; ("make" | "init" | "create_float" | "of_list" | "make_matrix") ] -> Some "array"
    | _ -> None)
  | _ -> None

let parallel_fns = [ "map_traced"; "map_env"; "map_result" ]

let parallel_fn_of parts =
  match List.rev parts with
  | fn :: "Parallel" :: _ when List.exists (String.equal fn) parallel_fns -> Some fn
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Reference collection inside Parallel task arguments               *)

module Sset = Set.Make (String)

let pattern_vars pat =
  let acc = ref Sset.empty in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it p ->
          (match p.Parsetree.ppat_desc with
          | Parsetree.Ppat_var { Location.txt; _ } -> acc := Sset.add txt !acc
          | Parsetree.Ppat_alias (_, { Location.txt; _ }) -> acc := Sset.add txt !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it p);
    }
  in
  it.Ast_iterator.pat it pat;
  !acc

(* All value paths referenced by a task/env argument, with local
   binders (fun parameters, lets, match cases) tracked so a parameter
   [x] is not mistaken for an opaque local function. Returns the
   paths plus whether an unresolvable local name was referenced. *)
let collect_arg_refs ~opens expr =
  let refs = ref [] in
  let local = ref false in
  let rec go bound (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { Location.txt = lid; _ } -> (
      match Longident.flatten lid with
      | [ single ] when Sset.mem single bound -> ()
      | parts -> refs := (parts, opens) :: !refs)
    | Parsetree.Pexp_fun (_, default, pat, body) ->
      Option.iter (go bound) default;
      go (Sset.union bound (pattern_vars pat)) body
    | Parsetree.Pexp_function cases ->
      List.iter
        (fun (c : Parsetree.case) ->
          let bound = Sset.union bound (pattern_vars c.Parsetree.pc_lhs) in
          Option.iter (go bound) c.Parsetree.pc_guard;
          go bound c.Parsetree.pc_rhs)
        cases
    | Parsetree.Pexp_let (_, vbs, body) ->
      List.iter (fun (vb : Parsetree.value_binding) -> go bound vb.Parsetree.pvb_expr) vbs;
      let bound =
        List.fold_left
          (fun acc (vb : Parsetree.value_binding) ->
            Sset.union acc (pattern_vars vb.Parsetree.pvb_pat))
          bound vbs
      in
      go bound body
    | Parsetree.Pexp_match (scrut, cases) | Parsetree.Pexp_try (scrut, cases) ->
      go bound scrut;
      List.iter
        (fun (c : Parsetree.case) ->
          let bound = Sset.union bound (pattern_vars c.Parsetree.pc_lhs) in
          Option.iter (go bound) c.Parsetree.pc_guard;
          go bound c.Parsetree.pc_rhs)
        cases
    | _ ->
      (* Generic children walk with the same bound set. *)
      let it =
        {
          Ast_iterator.default_iterator with
          expr = (fun _ child -> go bound child);
        }
      in
      Ast_iterator.default_iterator.expr it e
  in
  go Sset.empty expr;
  (!refs, !local)

(* ------------------------------------------------------------------ *)
(* Per-file collection                                                *)

type collect_ctx = {
  mutable mpath : string list;  (* submodule path, outermost first *)
  mutable opens : string list list;  (* innermost first *)
  mutable allows : string list list;  (* innermost scope first; bottom = file allows *)
  mutable named : bool;  (* current expression is a binding-RHS fun spine *)
  mutable cur : def option;
  facts : file_facts;
}

let current_allows ctx = List.concat ctx.allows

let with_def ctx def f =
  let saved = ctx.cur in
  ctx.cur <- Some def;
  Fun.protect ~finally:(fun () -> ctx.cur <- saved) f

let make_call ctx ~whole parts loc =
  {
    c_path = parts;
    c_mpath = ctx.mpath;
    c_opens = ctx.opens;
    c_loc = loc;
    c_allows = current_allows ctx;
    c_whole = whole;
  }

let record_call ctx parts loc =
  match ctx.cur with
  | None -> ()
  | Some d -> d.d_calls <- make_call ctx ~whole:false parts loc :: d.d_calls

(* The module paths a module expression names without the resolver
   seeing which of their values it uses: a functor and its arguments,
   an [include]d or packed module. Every definition under such a path
   counts as referenced. *)
let rec opaque_module_paths (me : Parsetree.module_expr) =
  match me.Parsetree.pmod_desc with
  | Parsetree.Pmod_ident { Location.txt = lid; loc } -> [ (Longident.flatten lid, loc) ]
  | Parsetree.Pmod_apply (f, arg) -> opaque_module_paths f @ opaque_module_paths arg
  | Parsetree.Pmod_apply_unit inner
  | Parsetree.Pmod_constraint (inner, _)
  | Parsetree.Pmod_functor (_, inner) ->
    opaque_module_paths inner
  | Parsetree.Pmod_structure _ | Parsetree.Pmod_unpack _ | Parsetree.Pmod_extension _ -> []

(* Inside a definition the uses are its references; outside any, they
   belong to the module's own top level. *)
let record_module_uses ctx me =
  List.iter
    (fun (parts, loc) ->
      let c = make_call ctx ~whole:true parts loc in
      match ctx.cur with
      | Some d -> d.d_calls <- c :: d.d_calls
      | None -> ctx.facts.ff_top_uses <- c :: ctx.facts.ff_top_uses)
    (opaque_module_paths me)

let record_source ctx kind what loc =
  match ctx.cur with
  | None -> ()
  | Some d -> d.d_sources <- { s_kind = kind; s_what = what; s_loc = loc } :: d.d_sources

let record_alloc ctx what loc =
  match ctx.cur with
  | None -> ()
  | Some d ->
    d.d_allocs <- { a_what = what; a_loc = loc; a_allows = current_allows ctx } :: d.d_allocs

(* Whether a binding's right-hand side is a function: a [fun] spine,
   possibly under type constraints and locally abstract types. *)
let rec is_function (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ -> true
  | Parsetree.Pexp_constraint (inner, _) | Parsetree.Pexp_newtype (_, inner) -> is_function inner
  | _ -> false

let module_path_of_mod_expr (me : Parsetree.module_expr) =
  match me.Parsetree.pmod_desc with
  | Parsetree.Pmod_ident { Location.txt = lid; _ } -> Some (Longident.flatten lid)
  | _ -> None

let make_iterator ctx =
  let open Ast_iterator in
  let expr it (e : Parsetree.expression) =
    let allows = attr_allows e.Parsetree.pexp_attributes in
    let saved_allows = ctx.allows in
    if not (List.is_empty allows) then ctx.allows <- allows :: ctx.allows;
    let saved_named = ctx.named in
    let saved_opens = ctx.opens in
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { Location.txt = lid; loc } ->
      let parts = Longident.flatten lid in
      record_call ctx parts loc;
      (match source_of parts with
      | Some kind -> record_source ctx kind (String.concat "." parts) loc
      | None -> ());
      (match allocator_of parts with
      | Some what -> record_alloc ctx what loc
      | None -> ())
    | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ ->
      if not ctx.named then record_alloc ctx "closure" e.Parsetree.pexp_loc
    | Parsetree.Pexp_tuple _ -> record_alloc ctx "tuple" e.Parsetree.pexp_loc
    | Parsetree.Pexp_record _ -> record_alloc ctx "record" e.Parsetree.pexp_loc
    | Parsetree.Pexp_array (_ :: _) -> record_alloc ctx "array literal" e.Parsetree.pexp_loc
    | Parsetree.Pexp_lazy _ -> record_alloc ctx "lazy block" e.Parsetree.pexp_loc
    | Parsetree.Pexp_construct ({ Location.txt = lid; _ }, Some _) -> (
      match Longident.flatten lid with
      | [ "::" ] -> record_alloc ctx "list cons" e.Parsetree.pexp_loc
      | parts -> record_alloc ctx ("constructor " ^ String.concat "." parts) e.Parsetree.pexp_loc)
    | Parsetree.Pexp_variant (_, Some _) ->
      record_alloc ctx "polymorphic variant" e.Parsetree.pexp_loc
    | Parsetree.Pexp_apply
        ({ Parsetree.pexp_desc = Parsetree.Pexp_ident { Location.txt = lid; loc }; _ }, args)
      -> (
      match parallel_fn_of (Longident.flatten lid) with
      | None -> ()
      | Some fn -> (
        match ctx.cur with
        | None -> ()
        | Some d ->
          let task_arg =
            List.find_opt (function Asttypes.Nolabel, _ -> true | _ -> false) args
          in
          let env_arg =
            List.find_opt (function Asttypes.Labelled "env", _ -> true | _ -> false) args
          in
          let refs, local =
            List.fold_left
              (fun (refs, local) (_, arg) ->
                let r, l = collect_arg_refs ~opens:ctx.opens arg in
                (r @ refs, local || l))
              ([], false)
              (List.filter_map Fun.id [ task_arg; env_arg ])
          in
          let site =
            {
              p_fn = fn;
              p_loc = loc;
              p_allows = current_allows ctx;
              p_refs = refs;
              p_fallback = local;
            }
          in
          d.d_psites <- site :: d.d_psites))
    | Parsetree.Pexp_open (od, _) -> (
      match module_path_of_mod_expr od.Parsetree.popen_expr with
      | Some path -> ctx.opens <- path :: ctx.opens
      | None -> ())
    | Parsetree.Pexp_letmodule ({ Location.txt = name; _ }, me, _) -> (
      match (name, module_path_of_mod_expr me) with
      | Some name, Some path -> ctx.facts.ff_aliases <- (name, path) :: ctx.facts.ff_aliases
      | _ -> record_module_uses ctx me)
    | Parsetree.Pexp_pack me -> record_module_uses ctx me
    | _ -> ());
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ | Parsetree.Pexp_newtype _ ->
      ctx.named <- true
    | _ -> ctx.named <- false);
    default_iterator.expr it e;
    ctx.named <- saved_named;
    ctx.opens <- saved_opens;
    ctx.allows <- saved_allows
  in
  (* A nested [let f x = ...] is a named local function: its fun spine
     is not an anonymous closure, and its attributes scope over its
     body. It is not hoisted either: without flambda, a local function
     that captures anything is a closure built on every run of the
     enclosing body, so it counts as one allocation at the binding. *)
  let value_binding it (vb : Parsetree.value_binding) =
    let allows = attr_allows vb.Parsetree.pvb_attributes in
    let saved_allows = ctx.allows in
    if not (List.is_empty allows) then ctx.allows <- allows :: ctx.allows;
    if is_function vb.Parsetree.pvb_expr then
      record_alloc ctx "local function (closure)" vb.Parsetree.pvb_loc;
    it.pat it vb.Parsetree.pvb_pat;
    let saved_named = ctx.named in
    ctx.named <- true;
    it.expr it vb.Parsetree.pvb_expr;
    ctx.named <- saved_named;
    ctx.allows <- saved_allows
  in
  { default_iterator with expr; value_binding }

let names_of_pattern pat =
  let vars = pattern_vars pat in
  Sset.elements vars

let collect_binding ctx it (vb : Parsetree.value_binding) =
  let loc = vb.Parsetree.pvb_loc in
  let names =
    match names_of_pattern vb.Parsetree.pvb_pat with
    | [] -> [ Printf.sprintf "(entry:%d)" loc.Location.loc_start.Lexing.pos_lnum ]
    | names -> names
  in
  let hot =
    has_hot_attr vb.Parsetree.pvb_attributes
    || has_hot_attr vb.Parsetree.pvb_expr.Parsetree.pexp_attributes
  in
  let allows = attr_allows vb.Parsetree.pvb_attributes in
  let saved_allows = ctx.allows in
  if not (List.is_empty allows) then ctx.allows <- allows :: ctx.allows;
  let def =
    {
      d_names = names;
      d_mpath = ctx.mpath;
      d_loc = loc;
      d_hot = hot;
      d_mutable = mutable_kind_of vb.Parsetree.pvb_expr;
      d_allows = current_allows ctx;
      d_calls = [];
      d_sources = [];
      d_allocs = [];
      d_psites = [];
    }
  in
  ctx.facts.ff_defs <- def :: ctx.facts.ff_defs;
  with_def ctx def (fun () ->
      ctx.named <- true;
      it.Ast_iterator.expr it vb.Parsetree.pvb_expr;
      ctx.named <- false);
  ctx.allows <- saved_allows

let rec collect_structure ctx it (str : Parsetree.structure) =
  List.iter (collect_structure_item ctx it) str

and collect_structure_item ctx it (si : Parsetree.structure_item) =
  match si.Parsetree.pstr_desc with
  | Parsetree.Pstr_value (_, vbs) -> List.iter (collect_binding ctx it) vbs
  | Parsetree.Pstr_eval (e, attrs) ->
    let loc = si.Parsetree.pstr_loc in
    let def =
      {
        d_names = [ Printf.sprintf "(entry:%d)" loc.Location.loc_start.Lexing.pos_lnum ];
        d_mpath = ctx.mpath;
        d_loc = loc;
        d_hot = has_hot_attr attrs;
        d_mutable = None;
        d_allows = current_allows ctx;
        d_calls = [];
        d_sources = [];
        d_allocs = [];
        d_psites = [];
      }
    in
    ctx.facts.ff_defs <- def :: ctx.facts.ff_defs;
    with_def ctx def (fun () -> it.Ast_iterator.expr it e)
  | Parsetree.Pstr_module mb -> collect_module_binding ctx it mb
  | Parsetree.Pstr_recmodule mbs -> List.iter (collect_module_binding ctx it) mbs
  | Parsetree.Pstr_open od -> (
    match module_path_of_mod_expr od.Parsetree.popen_expr with
    | Some path -> ctx.opens <- path :: ctx.opens
    | None -> ())
  | Parsetree.Pstr_include { Parsetree.pincl_mod = me; _ } -> (
    (* [include M] re-exports M's bindings: treat as an open so
       unqualified references resolve through it, and as an opaque
       use of all of them. *)
    record_module_uses ctx me;
    match me.Parsetree.pmod_desc with
    | Parsetree.Pmod_ident { Location.txt = lid; _ } ->
      ctx.opens <- Longident.flatten lid :: ctx.opens
    | Parsetree.Pmod_structure str -> collect_structure ctx it str
    | _ -> ())
  | _ -> ()

and collect_module_binding ctx it (mb : Parsetree.module_binding) =
  match mb.Parsetree.pmb_name.Location.txt with
  | None -> record_module_uses ctx mb.Parsetree.pmb_expr
  | Some name -> collect_module_expr ctx it name mb.Parsetree.pmb_expr

(* A functor's body is walked like a submodule of its name. A functor
   application is an opaque use of the functor and its arguments; a
   structure passed as an argument is walked as a submodule too, and
   counts as used by the functor. *)
and collect_module_expr ctx it name (me : Parsetree.module_expr) =
  let as_submodule str =
    let saved = ctx.mpath in
    ctx.mpath <- ctx.mpath @ [ name ];
    collect_structure ctx it str;
    ctx.mpath <- saved
  in
  match me.Parsetree.pmod_desc with
  | Parsetree.Pmod_constraint (inner, _) | Parsetree.Pmod_functor (_, inner) ->
    collect_module_expr ctx it name inner
  | Parsetree.Pmod_ident { Location.txt = lid; _ } ->
    ctx.facts.ff_aliases <- (name, Longident.flatten lid) :: ctx.facts.ff_aliases
  | Parsetree.Pmod_structure str -> as_submodule str
  | Parsetree.Pmod_apply _ | Parsetree.Pmod_apply_unit _ -> (
    record_module_uses ctx me;
    let rec structure_args (me : Parsetree.module_expr) =
      match me.Parsetree.pmod_desc with
      | Parsetree.Pmod_apply (f, arg) -> structure_args f @ structure_args arg
      | Parsetree.Pmod_apply_unit inner | Parsetree.Pmod_constraint (inner, _) ->
        structure_args inner
      | Parsetree.Pmod_structure str -> [ str ]
      | _ -> []
    in
    let args = structure_args me in
    List.iter as_submodule args;
    if not (List.is_empty args) then
      ctx.facts.ff_top_uses <-
        make_call ctx ~whole:true [ name ] me.Parsetree.pmod_loc :: ctx.facts.ff_top_uses)
  | Parsetree.Pmod_unpack _ | Parsetree.Pmod_extension _ -> ()

(* The floating [@@@lint.allow] attributes apply file-wide. *)
let file_allows (str : Parsetree.structure) =
  List.concat_map
    (fun (si : Parsetree.structure_item) ->
      match si.Parsetree.pstr_desc with
      | Parsetree.Pstr_attribute a -> attr_allows [ a ]
      | _ -> [])
    str

let collect_file ~path (str : Parsetree.structure) =
  let facts =
    {
      ff_path = path;
      ff_module = module_name_of_path path;
      ff_defs = [];
      ff_aliases = [];
      ff_top_uses = [];
    }
  in
  let ctx =
    {
      mpath = [];
      opens = [];
      allows = [ file_allows str ];
      named = false;
      cur = None;
      facts;
    }
  in
  let it = make_iterator ctx in
  collect_structure ctx it str;
  facts.ff_defs <- List.rev facts.ff_defs;
  facts

(* ------------------------------------------------------------------ *)
(* Resolution: facts -> graph                                         *)

type node = {
  n_id : int;
  n_file : string;
  n_name : string;  (* "Engine.run", "Telemetry.Sink.null" *)
  n_local : string;  (* dotted path within the file: "run", "Sink.null" *)
  n_line : int;
  n_col : int;
  n_hot : bool;
  n_mutable : string option;
  n_allows : string list;
  n_sources : source list;
  n_allocs : alloc list;
}

type edge = { e_from : int; e_to : int; e_loc : Location.t; e_allows : string list }

type rsite = {
  r_node : int;  (* enclosing definition *)
  r_fn : string;
  r_loc : Location.t;
  r_allows : string list;
  r_roots : int list;  (* resolved task/env references *)
  r_fallback : bool;  (* true: also treat the enclosing definition as a root *)
}

type t = {
  nodes : node array;
  edges : edge list;  (* sorted by (file, line, col, callee) *)
  sites : rsite list;
  top_uses : (string * int) list;  (* (file, definition) used opaquely outside any definition *)
  n_files : int;
}

type resolver = {
  by_module : (string, file_facts list) Hashtbl.t;
  index : (string * string, int) Hashtbl.t;  (* (file path, local dotted name) -> node id *)
  members : (string * string, int list) Hashtbl.t;
      (* (file path, dotted submodule path, "" for the file) -> node ids under it *)
  alias_of : (string, (string * string list) list) Hashtbl.t;  (* file path -> aliases *)
  file_dir : (string, string) Hashtbl.t;
}

let dotted mpath name = String.concat "." (mpath @ [ name ])

(* Module initialisers ([let () = ...], bare expressions) are named
   "(entry:<line>)" by [collect_binding] and [collect_structure_item]. *)
let is_entry n = String.starts_with ~prefix:"(entry:" n.n_local

let lowercase_head = function
  | part :: _ -> String.length part > 0 && part.[0] >= 'a' && part.[0] <= 'z'
  | [] -> false

(* What a path names inside one file: a value (one node) or a module
   (every node under it). *)
let find_value r ff_path parts = Hashtbl.find_opt r.index (ff_path, String.concat "." parts)

let find_module r ff_path parts = Hashtbl.find_opt r.members (ff_path, String.concat "." parts)

(* Resolve [parts] as a local path within file [ff_path], expanding
   that file's module aliases ([module T = Psn_telemetry.Telemetry])
   into global paths. Depth-bounded: alias chains cannot loop. *)
let rec resolve_in_file r ~find ~depth ~from_dir ff_path parts =
  match find ff_path parts with
  | Some found -> Some found
  | None -> (
    match parts with
    | [] -> None
    | head :: tl ->
      if depth > 6 then None
      else
        let aliases = Option.value ~default:[] (Hashtbl.find_opt r.alias_of ff_path) in
        (match List.assoc_opt head aliases with
        | Some target -> resolve_global r ~find ~depth:(depth + 1) ~from_dir (target @ tl)
        | None -> None))

(* Resolve a fully-qualified path against the tree: find the leftmost
   segment that names a known file module and whose remaining suffix
   resolves inside that file. Umbrella modules (Core, Psn_sim) fall
   through naturally: their segment either is not a file module or
   carries a module alias that expands to the real location. *)
and resolve_global r ~find ~depth ~from_dir parts =
  if depth > 6 then None
  else
    let n = List.length parts in
    let rec try_at i rest =
      if i > n - 1 then None
      else
        match rest with
        | [] -> None
        | seg :: tl -> (
          let candidates =
            match Hashtbl.find_opt r.by_module seg with
            | None -> []
            | Some ffs ->
              List.stable_sort
                (fun a b ->
                  let da = String.equal (Filename.dirname a.ff_path) from_dir in
                  let db = String.equal (Filename.dirname b.ff_path) from_dir in
                  if da = db then String.compare a.ff_path b.ff_path
                  else if da then -1
                  else 1)
                ffs
          in
          let resolved =
            List.find_map
              (fun ff -> resolve_in_file r ~find ~depth:(depth + 1) ~from_dir ff.ff_path tl)
              candidates
          in
          match resolved with Some id -> Some id | None -> try_at (i + 1) tl)
    in
    try_at 0 parts

(* A reference at a call site: same file first (submodule context,
   then top level, then the file's aliases), then the opens in scope,
   then the bare path against the whole tree. *)
let resolve_ref r ~find ~ff ~mpath ~opens parts =
  let from_dir = Filename.dirname ff.ff_path in
  let local_candidates = if List.is_empty mpath then [ parts ] else [ mpath @ parts; parts ] in
  let in_file =
    List.find_map
      (fun cand -> resolve_in_file r ~find ~depth:0 ~from_dir ff.ff_path cand)
      local_candidates
  in
  match in_file with
  | Some found -> Some found
  | None ->
    let candidates = parts :: List.map (fun o -> o @ parts) opens in
    List.find_map (fun cand -> resolve_global r ~find ~depth:0 ~from_dir cand) candidates

(* The definitions a call references: the callee, or for an opaque
   module use every definition under the module. *)
let resolve_call r ~ff c =
  let resolve find = resolve_ref r ~find ~ff ~mpath:c.c_mpath ~opens:c.c_opens c.c_path in
  if c.c_whole then Option.value ~default:[] (resolve (find_module r))
  else Option.to_list (resolve (find_value r))

let compare_loc (a : Location.t) (b : Location.t) =
  let la = a.Location.loc_start.Lexing.pos_lnum and lb = b.Location.loc_start.Lexing.pos_lnum in
  let c = Int.compare la lb in
  if c <> 0 then c
  else
    Int.compare
      (a.Location.loc_start.Lexing.pos_cnum - a.Location.loc_start.Lexing.pos_bol)
      (b.Location.loc_start.Lexing.pos_cnum - b.Location.loc_start.Lexing.pos_bol)

let build (files : file_facts list) =
  (* Stable node numbering: files in the (already sorted) order given,
     definitions in source order. *)
  let r =
    {
      by_module = Hashtbl.create 64;
      index = Hashtbl.create 512;
      members = Hashtbl.create 128;
      alias_of = Hashtbl.create 64;
      file_dir = Hashtbl.create 64;
    }
  in
  let nodes = ref [] in
  let next = ref 0 in
  List.iter
    (fun ff ->
      Hashtbl.replace r.by_module ff.ff_module
        (match Hashtbl.find_opt r.by_module ff.ff_module with
        | Some l -> l @ [ ff ]
        | None -> [ ff ]);
      Hashtbl.replace r.alias_of ff.ff_path ff.ff_aliases;
      Hashtbl.replace r.file_dir ff.ff_path (Filename.dirname ff.ff_path);
      List.iter
        (fun d ->
          let id = !next in
          incr next;
          let primary = List.hd d.d_names in
          let local = dotted d.d_mpath primary in
          let node =
            {
              n_id = id;
              n_file = ff.ff_path;
              n_name = ff.ff_module ^ "." ^ local;
              n_local = local;
              n_line = d.d_loc.Location.loc_start.Lexing.pos_lnum;
              n_col =
                d.d_loc.Location.loc_start.Lexing.pos_cnum
                - d.d_loc.Location.loc_start.Lexing.pos_bol;
              n_hot = d.d_hot;
              n_mutable = d.d_mutable;
              n_allows = d.d_allows;
              n_sources = List.rev d.d_sources;
              n_allocs = List.rev d.d_allocs;
            }
          in
          nodes := node :: !nodes;
          List.iter
            (fun name -> Hashtbl.replace r.index (ff.ff_path, dotted d.d_mpath name) id)
            d.d_names;
          (* A member of the file's module and of every enclosing submodule. *)
          let rec register prefix rest =
            let key = (ff.ff_path, String.concat "." prefix) in
            Hashtbl.replace r.members key
              (id :: Option.value ~default:[] (Hashtbl.find_opt r.members key));
            match rest with [] -> () | m :: rest -> register (prefix @ [ m ]) rest
          in
          register [] d.d_mpath)
        ff.ff_defs)
    files;
  let nodes = Array.of_list (List.rev !nodes) in
  let edges = ref [] in
  let sites = ref [] in
  let id = ref 0 in
  List.iter
    (fun ff ->
      List.iter
        (fun d ->
          let self = !id in
          incr id;
          List.iter
            (fun c ->
              List.iter
                (fun callee ->
                  if callee <> self then
                    edges :=
                      { e_from = self; e_to = callee; e_loc = c.c_loc; e_allows = c.c_allows }
                      :: !edges)
                (resolve_call r ~ff c))
            (List.rev d.d_calls);
          List.iter
            (fun p ->
              let roots = ref [] in
              let fallback = ref p.p_fallback in
              List.iter
                (fun (parts, opens) ->
                  match resolve_ref r ~find:(find_value r) ~ff ~mpath:d.d_mpath ~opens parts with
                  | Some root -> roots := root :: !roots
                  | None ->
                    (* A single lowercase name we cannot resolve is a
                       local value (a closure, a parameter): we cannot
                       see inside it, so the enclosing definition
                       stands in as a conservative root. *)
                    if List.length parts = 1 && lowercase_head parts then fallback := true)
                p.p_refs;
              sites :=
                {
                  r_node = self;
                  r_fn = p.p_fn;
                  r_loc = p.p_loc;
                  r_allows = p.p_allows;
                  r_roots = List.sort_uniq Int.compare !roots;
                  r_fallback = !fallback;
                }
                :: !sites)
            (List.rev d.d_psites))
        ff.ff_defs)
    files;
  let edge_compare a b =
    let c = String.compare nodes.(a.e_from).n_file nodes.(b.e_from).n_file in
    if c <> 0 then c
    else
      let c = compare_loc a.e_loc b.e_loc in
      if c <> 0 then c else Int.compare a.e_to b.e_to
  in
  let edges =
    List.sort_uniq
      (fun a b ->
        let c = edge_compare a b in
        if c <> 0 then c else Int.compare a.e_from b.e_from)
      !edges
  in
  let sites =
    List.sort
      (fun a b ->
        let c = String.compare nodes.(a.r_node).n_file nodes.(b.r_node).n_file in
        if c <> 0 then c else compare_loc a.r_loc b.r_loc)
      !sites
  in
  let top_uses =
    List.concat_map
      (fun ff ->
        List.concat_map
          (fun c -> List.map (fun id -> (ff.ff_path, id)) (resolve_call r ~ff c))
          ff.ff_top_uses)
      files
    |> List.sort_uniq (fun (fa, a) (fb, b) ->
           let c = String.compare fa fb in
           if c <> 0 then c else Int.compare a b)
  in
  { nodes; edges; sites; top_uses; n_files = List.length files }

(* ------------------------------------------------------------------ *)
(* Export                                                             *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let loc_line (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum

let loc_col (loc : Location.t) =
  loc.Location.loc_start.Lexing.pos_cnum - loc.Location.loc_start.Lexing.pos_bol

let pp_json ppf t =
  Format.fprintf ppf "{\"schema\":\"psn-lint-callgraph/1\",\"nodes\":[";
  Array.iteri
    (fun i n ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf "@.  {\"id\":%d,\"name\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d"
        n.n_id (json_escape n.n_name) (json_escape n.n_file) n.n_line n.n_col;
      if n.n_hot then Format.fprintf ppf ",\"hot\":true";
      (match n.n_mutable with
      | Some kind -> Format.fprintf ppf ",\"mutable\":\"%s\"" (json_escape kind)
      | None -> ());
      Format.fprintf ppf "}")
    t.nodes;
  Format.fprintf ppf "@.],\"edges\":[";
  List.iteri
    (fun i e ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf "@.  {\"from\":%d,\"to\":%d,\"line\":%d,\"col\":%d}" e.e_from e.e_to
        (loc_line e.e_loc) (loc_col e.e_loc))
    t.edges;
  Format.fprintf ppf "@.],\"parallel_sites\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf ",";
      Format.fprintf ppf "@.  {\"node\":%d,\"fn\":\"%s\",\"line\":%d,\"col\":%d}" s.r_node
        (json_escape s.r_fn) (loc_line s.r_loc) (loc_col s.r_loc))
    t.sites;
  Format.fprintf ppf "@.]}@."

let pp_dot ppf t =
  Format.fprintf ppf "digraph psn_callgraph {@.";
  Format.fprintf ppf "  rankdir=LR;@.  node [shape=box,fontsize=10];@.";
  Array.iter
    (fun n ->
      let style =
        if n.n_hot then ",style=filled,fillcolor=\"#ffd9b3\""
        else
          match n.n_mutable with
          | Some _ -> ",style=filled,fillcolor=\"#ffcccc\""
          | None -> ""
      in
      Format.fprintf ppf "  n%d [label=\"%s\\n%s:%d\"%s];@." n.n_id (json_escape n.n_name)
        (json_escape n.n_file) n.n_line style)
    t.nodes;
  List.iter (fun e -> Format.fprintf ppf "  n%d -> n%d;@." e.e_from e.e_to) t.edges;
  List.iter
    (fun s ->
      List.iter
        (fun root ->
          Format.fprintf ppf "  n%d -> n%d [style=dashed,label=\"Parallel.%s\"];@." s.r_node root
            (json_escape s.r_fn))
        s.r_roots)
    t.sites;
  Format.fprintf ppf "}@."
