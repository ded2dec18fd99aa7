(* psn_lint — the determinism-contract linter.

   Usage: psn_lint [--config lint.toml] [--format human|json|sarif]
          [--graph json|dot] [--rules] PATH...

   Exit codes: 0 clean, 1 findings, 2 usage or configuration error.
   --graph prints the resolved whole-program call graph instead of
   findings and always exits 0; its output is byte-stable across runs. *)

let usage =
  "psn_lint [--config FILE] [--format human|json|sarif] [--graph json|dot] [--rules] PATH..."

module Json = Psn_json.Json

(* SARIF 2.1.0, the GitHub code-scanning subset: one run, the full
   rule registry in the driver, one result per finding. Emitted
   sorted (findings already are), so the artifact is deterministic. *)
let sarif findings =
  let open Json in
  let text s = Obj [ ("text", Str s) ] in
  let rule { Psn_lint.Rules.name; summary; rationale } =
    Obj [ ("id", Str name); ("shortDescription", text summary); ("fullDescription", text rationale) ]
  in
  let result { Psn_lint.Diagnostic.file; line; col; rule; message } =
    let region = Obj [ ("startLine", int line); ("startColumn", int (col + 1)) ] in
    let location = Obj [ ("artifactLocation", Obj [ ("uri", Str file) ]); ("region", region) ] in
    Obj
      [
        ("ruleId", Str rule);
        ("level", Str "error");
        ("message", text message);
        ("locations", Arr [ Obj [ ("physicalLocation", location) ] ]);
      ]
  in
  let driver = Obj [ ("name", Str "psn_lint"); ("rules", Rows (List.map rule Psn_lint.Rules.all)) ] in
  let run = Obj [ ("tool", Obj [ ("driver", driver) ]); ("results", Rows (List.map result findings)) ] in
  Obj
    [
      ("version", Str "2.1.0");
      ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
      ("runs", Arr [ run ]);
    ]

let () =
  let format = ref `Human in
  let graph = ref None in
  let config_path = ref None in
  let list_rules = ref false in
  let paths = ref [] in
  let set_format = function
    | "human" -> format := `Human
    | "json" -> format := `Json
    | "sarif" -> format := `Sarif
    | other ->
      Printf.eprintf "psn_lint: unknown format %S (expected human, json or sarif)\n" other;
      exit 2
  in
  let set_graph = function
    | "json" -> graph := Some `Json
    | "dot" -> graph := Some `Dot
    | other ->
      Printf.eprintf "psn_lint: unknown graph format %S (expected json or dot)\n" other;
      exit 2
  in
  let spec =
    [
      ("--config", Arg.String (fun f -> config_path := Some f), "FILE per-path allowlist (lint.toml)");
      ("--format", Arg.String set_format, "FMT output format: human (default), json or sarif");
      ( "--graph",
        Arg.String set_graph,
        "FMT print the whole-program call graph (json or dot) and exit 0" );
      ("--rules", Arg.Set list_rules, " list every rule with its rationale and exit");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun p -> paths := p :: !paths) usage with
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  if !list_rules then begin
    Format.printf "%a" Psn_lint.Rules.pp_list ();
    exit 0
  end;
  let paths = List.rev !paths in
  if List.is_empty paths then begin
    Printf.eprintf "psn_lint: no paths given\nusage: %s\n" usage;
    exit 2
  end;
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then begin
        Printf.eprintf "psn_lint: no such file or directory: %s\n" p;
        exit 2
      end)
    paths;
  let config =
    match !config_path with
    | None -> Psn_lint.Config.empty
    | Some file -> (
      match Psn_lint.Config.load file with
      | Ok c -> c
      | Error msg ->
        Printf.eprintf "psn_lint: %s\n" msg;
        exit 2)
  in
  let findings, callgraph = Psn_lint.Linter.analyze ~config paths in
  match !graph with
  | Some `Json ->
    Format.printf "%a" Psn_lint.Callgraph.pp_json callgraph;
    exit 0
  | Some `Dot ->
    Format.printf "%a" Psn_lint.Callgraph.pp_dot callgraph;
    exit 0
  | None ->
    (match !format with
    | `Human ->
      List.iter (fun d -> Format.printf "%a@." Psn_lint.Diagnostic.pp d) findings;
      let n = List.length findings in
      if n > 0 then
        Format.printf
          "%d finding%s (see --rules for rationale; suppress with [@lint.allow \"<rule>\"])@." n
          (if n = 1 then "" else "s")
    | `Json ->
      let rows = Json.Rows (List.map Psn_lint.Diagnostic.to_json findings) in
      Format.printf "%s@." (Json.to_string (Json.Obj [ ("findings", rows) ]))
    | `Sarif -> Format.printf "%s@." (Json.to_string (sarif findings)));
    exit (if List.is_empty findings then 0 else 1)
