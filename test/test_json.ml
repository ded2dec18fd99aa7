(* The one JSON module: the printer and the strict parser round-trip,
   the parser rejects what RFC 8259 rejects, and every pinned JSON
   golden parses. *)

module Json = Psn_json.Json

let rec rows_as_arr = function
  | Json.Arr vs | Json.Rows vs -> Json.Arr (List.map rows_as_arr vs)
  | Json.Obj m -> Json.Obj (List.map (fun (k, v) -> (k, rows_as_arr v)) m)
  | v -> v

(* Strings mix printable text with quotes, backslashes, control
   characters and bytes from 0x80 up. *)
let gen_json =
  let open QCheck.Gen in
  let special = oneofl [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\000'; '\x1f' ] in
  let byte = frequency [ (3, printable); (1, special); (1, char_range '\x80' '\xff') ] in
  let str = string_size ~gen:byte (int_bound 8) in
  let float = map (fun f -> Json.Num (Printf.sprintf "%.17g" f)) (float_range (-1e9) 1e9) in
  let num = oneof [ map Json.int int; float; oneofl [ Json.Num "-0"; Json.Num "0.5e-3" ] ] in
  let leaf = oneof [ return Json.Null; map (fun b -> Json.Bool b) bool; num; map (fun s -> Json.Str s) str ] in
  sized
  @@ fix (fun self n ->
         let list g = list_size (int_bound 4) g in
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun vs -> Json.Arr vs) (list (self (n / 4))));
               (1, map (fun vs -> Json.Rows vs) (list (self (n / 4))));
               (1, map (fun m -> Json.Obj m) (list (pair str (self (n / 4)))));
             ])

let round_trip =
  QCheck.Test.make ~name:"parse inverts to_string" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = Ok (rows_as_arr v))

let check_parses expected =
  List.iter (fun text -> Alcotest.(check bool) text expected (Result.is_ok (Json.parse text)))

let nested k = String.make k '[' ^ String.make k ']'

let test_accepts () =
  check_parses true [ "0"; "-0.5e+10"; "1E3"; " [ ] "; "{}"; {|{"a":[true,false,null]}|}; {|"\/\b\fé"|} ];
  check_parses true [ nested 32 ]

let test_rejects () =
  check_parses false [ ""; "[tru]"; "[1-2]"; "nul"; "True"; "01"; "1."; ".5"; "1e"; "-"; "[1,]" ];
  check_parses false [ "[] []"; {|{"a" 1}|}; {|{"a":1,}|}; "{1:2}"; "\"open"; "\"a\tb\""; nested 33 ];
  check_parses false [ {|"\x"|}; {|"\u12g4"|}; {|"\ud800"|}; {|"\udc00"|}; {|"\ud800\u0041"|} ]

let test_decodes () =
  Alcotest.(check bool) "escapes decode to bytes" true
    (Json.parse {|["\u00e9\ud83d\ude00","\n\"\\"]|}
    = Ok (Json.Arr [ Json.Str "\xc3\xa9\xf0\x9f\x98\x80"; Json.Str "\n\"\\" ]));
  Alcotest.(check (result reject string))
    "error names reason and offset" (Error "expected ',' or ']' at byte 2")
    (Result.map ignore (Json.parse "[1-2]"))

(* These files are byte-equal to what Chrome, the lint findings, SARIF
   and the call graph emit (their golden rules diff them), so each
   parsing proves its surface writes valid JSON. *)
let test_goldens_parse () =
  List.iter
    (fun path ->
      match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%s: %s" path msg)
    [
      "telemetry_chrome.expected";
      "lint_fixtures/json_format.expected";
      "lint_fixtures/sarif_format.expected";
      "lint_fixtures/graph_json.expected";
    ]

let () =
  Alcotest.run "json"
    [
      ( "parser",
        [
          Alcotest.test_case "accepts" `Quick test_accepts;
          Alcotest.test_case "rejects" `Quick test_rejects;
          Alcotest.test_case "decodes escapes" `Quick test_decodes;
          Alcotest.test_case "goldens parse" `Quick test_goldens_parse;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest round_trip ]);
    ]
