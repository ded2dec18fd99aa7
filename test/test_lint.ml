(* Tests for psn_lint's configuration layer: the directory-boundary-
   aware prefix matching (qcheck properties — "bin" must never cover
   "bin_utils/...") and the three-table lint.toml parser ([allow] /
   [boundary] / [ownership]) with its validation rules; and that the
   analysis does not depend on the order its paths are given in. *)

module Config = Psn_lint.Config

(* --- prefix matching: properties --- *)

(* Path segments that exercise the dangerous shapes: shared prefixes
   ("bin" vs "bin_utils"), dots, single letters. *)
let gen_segment =
  QCheck2.Gen.oneofl
    [ "lib"; "bin"; "bin_utils"; "sim"; "sim2"; "a"; "ab"; "clock.ml"; "engine.ml"; "x.mli" ]

let gen_segments = QCheck2.Gen.(list_size (int_range 1 4) gen_segment)

let join = String.concat "/"

let qcheck_prefix =
  let open QCheck2 in
  [
    Test.make ~name:"prefix covers its own subtree" ~count:500
      Gen.(pair gen_segments gen_segments)
      (fun (prefix, rest) ->
        Config.prefix_matches ~prefix:(join prefix) (join (prefix @ rest)));
    Test.make ~name:"prefix covers itself exactly" ~count:200 gen_segments (fun segs ->
        Config.prefix_matches ~prefix:(join segs) (join segs));
    Test.make ~name:"character prefixes never leak across a directory boundary" ~count:500
      Gen.(triple gen_segments (oneofl [ "_utils"; "x"; "2"; "_" ]) gen_segments)
      (fun (prefix, glue, rest) ->
        (* "bin" vs "bin_utils/...": the sibling shares the spelling
           but not the directory. *)
        let sibling =
          match List.rev prefix with
          | last :: parents -> List.rev ((last ^ glue) :: parents)
          | [] -> assert false
        in
        not (Config.prefix_matches ~prefix:(join prefix) (join (sibling @ rest))));
    Test.make ~name:"trailing slash is equivalent" ~count:500
      Gen.(pair gen_segments gen_segments)
      (fun (prefix, path) ->
        Bool.equal
          (Config.prefix_matches ~prefix:(join prefix) (join path))
          (Config.prefix_matches ~prefix:(join prefix ^ "/") (join path)));
    Test.make ~name:"leading ./ is normalised on both sides" ~count:500
      Gen.(pair gen_segments gen_segments)
      (fun (prefix, path) ->
        Bool.equal
          (Config.prefix_matches ~prefix:(join prefix) (join path))
          (Config.prefix_matches ~prefix:("./" ^ join prefix) ("./" ^ join path)));
    Test.make ~name:"empty prefix matches nothing" ~count:200 gen_segments (fun path ->
        not (Config.prefix_matches ~prefix:"" (join path))
        && not (Config.prefix_matches ~prefix:"./" (join path)));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* --- prefix matching: pinned cases --- *)

let test_prefix_cases () =
  let check name expect prefix path =
    Alcotest.(check bool) name expect (Config.prefix_matches ~prefix path)
  in
  check "dir covers file below" true "bin" "bin/psn_cli.ml";
  check "dir with slash covers file below" true "bin/" "bin/psn_cli.ml";
  check "no sibling leak" false "bin" "bin_utils/helper.ml";
  check "no sibling leak with slash" false "bin/" "bin_utils/helper.ml";
  check "exact file" true "lib/telemetry/clock.ml" "lib/telemetry/clock.ml";
  check "file is not a prefix of its siblings" false "lib/telemetry/clock.ml"
    "lib/telemetry/clock_skew.ml";
  check "nested subtree" true "lib/det" "lib/det/det_tbl.ml";
  check "parent does not match child prefix string" false "lib/dets" "lib/det/det_tbl.ml"

(* --- lint.toml parsing --- *)

let ok_config text =
  match Config.of_string text with
  | Ok c -> c
  | Error msg -> Alcotest.failf "expected parse success, got: %s" msg

let err_config text =
  match Config.of_string text with
  | Ok _ -> Alcotest.fail "expected parse failure"
  | Error msg -> msg

let test_parse_three_tables () =
  let c =
    ok_config
      {|# comment
[allow]
"bin/" = ["stdout-print", "missing-mli"]

[boundary]
"lib/telemetry/clock.ml" = ["wall-clock"]
"lib/det/" = ["hash-order-iteration"]

[ownership]
"lib/store/codec.ml" = ["crc_table"]
"lib/scratch/" = ["*"]
|}
  in
  Alcotest.(check bool) "allow hit" true (Config.allowed c ~path:"bin/psn_cli.ml" ~rule:"stdout-print");
  Alcotest.(check bool) "allow miss on rule" false (Config.allowed c ~path:"bin/psn_cli.ml" ~rule:"wall-clock");
  Alcotest.(check bool) "allow miss on path" false (Config.allowed c ~path:"lib/x.ml" ~rule:"stdout-print");
  Alcotest.(check bool) "boundary exact file" true
    (Config.boundary c ~path:"lib/telemetry/clock.ml" ~kind:"wall-clock");
  Alcotest.(check bool) "boundary subtree" true
    (Config.boundary c ~path:"lib/det/det_tbl.ml" ~kind:"hash-order-iteration");
  Alcotest.(check bool) "boundary wrong kind" false
    (Config.boundary c ~path:"lib/det/det_tbl.ml" ~kind:"wall-clock");
  Alcotest.(check bool) "owned named binding" true
    (Config.owned c ~path:"lib/store/codec.ml" ~name:"crc_table");
  Alcotest.(check bool) "owned other binding" false
    (Config.owned c ~path:"lib/store/codec.ml" ~name:"other_table");
  Alcotest.(check bool) "owned wildcard" true
    (Config.owned c ~path:"lib/scratch/pool.ml" ~name:"anything")

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  go 0

let test_parse_rejects_typos () =
  let msg = err_config "[allow]\n\"lib/\" = [\"no-such-rule\"]\n" in
  Alcotest.(check bool) "unknown rule named" true (contains ~sub:"no-such-rule" msg);
  let msg = err_config "[boundary]\n\"lib/\" = [\"stdout-print\"]\n" in
  Alcotest.(check bool) "boundary entries must be taint kinds" true
    (contains ~sub:"taint kind" msg);
  let msg = err_config "\"lib/\" = [\"failwith\"]\n" in
  Alcotest.(check bool) "entry outside any section" true (contains ~sub:"outside" msg);
  let msg = err_config "[allowances]\n" in
  Alcotest.(check bool) "unknown section" true (contains ~sub:"unknown section" msg)

let test_ownership_free_form () =
  (* Ownership lists binding names, not rule names: arbitrary names
     must parse (a typo only narrows the sanction). *)
  let c = ok_config "[ownership]\n\"lib/\" = [\"whatever_binding\"]\n" in
  Alcotest.(check bool) "parses and matches" true
    (Config.owned c ~path:"lib/a.ml" ~name:"whatever_binding")

(* --- analysis: argument order --- *)

let render paths =
  let findings, graph = Psn_lint.Linter.analyze ~config:Config.empty paths in
  ( List.map (Format.asprintf "%a" Psn_lint.Diagnostic.pp) findings,
    Format.asprintf "%a" Psn_lint.Callgraph.pp_json graph )

let test_argument_order () =
  let trees = [ "lint_fixtures/taint_tree/src"; "lint_fixtures/domain_tree/src" ] in
  let findings, graph = render trees in
  let findings', graph' = render (List.rev trees) in
  Alcotest.(check bool) "both trees report findings" true
    (List.exists (contains ~sub:"taint_tree") findings
    && List.exists (contains ~sub:"domain_tree") findings);
  Alcotest.(check (list string)) "same findings" findings findings';
  Alcotest.(check string) "same --graph json bytes" graph graph'

let () =
  Alcotest.run "lint"
    [
      ("prefix-properties", qcheck_prefix);
      ( "prefix-cases",
        [ Alcotest.test_case "pinned shapes" `Quick test_prefix_cases ] );
      ( "config",
        [
          Alcotest.test_case "three tables" `Quick test_parse_three_tables;
          Alcotest.test_case "typos rejected" `Quick test_parse_rejects_typos;
          Alcotest.test_case "ownership free-form" `Quick test_ownership_free_form;
        ] );
      ("analyze", [ Alcotest.test_case "argument order" `Quick test_argument_order ]);
    ]
