(* Tests for the benchmark itself, at test size (--tiny):

   - every workload emits every end-to-end metric of BENCHMARK.json
     untraced, and every per-layer metric (trace.coverage among them)
     traced, with no failed check;
   - damaging one output (--corrupt: one reply line, one stored frame,
     one enumeration, one outcome) makes a check fail, so ok_ratio drops
     below 1 and "failed" is positive.

   Usage: test_bench.exe MAIN_EXE *)

let workloads = [ "enum-fig4"; "sim-fig9"; "serve-session"; "store-replay" ]

let run exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_lines ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
    match List.rev lines with
    | last :: _ -> last
    | [] -> failwith "no output")
  | _ -> failwith (String.concat " " ("exit status non-zero:" :: args))

let find s sub =
  let n = String.length sub in
  let rec go i = if i + n > String.length s then None else if String.sub s i n = sub then Some i else go (i + 1) in
  go 0

let contains s sub = Option.is_some (find s sub)

(* Whether the result line reports metric [name] with [unit]. *)
let reports line (name, unit) =
  match find line (Printf.sprintf "%S: {\"value\": " name) with
  | None -> false
  | Some i -> (
    let rest = String.sub line i (String.length line - i) in
    match (find rest "\"unit\": ", find rest "}") with
    | Some u, Some e -> u < e && String.sub rest (u + 8) (e - u - 8) = Printf.sprintf "%S" unit
    | _ -> false)

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let failed_count line =
  match String.split_on_char ',' line |> List.find_opt (fun f -> contains f "\"failed\"") with
  | None -> -1
  | Some f -> (
    match String.split_on_char ':' f with
    | [ _; v ] -> Option.value ~default:(-1) (int_of_string_opt (String.trim v))
    | _ -> -1)

let () =
  let exe = if Filename.is_implicit Sys.argv.(1) then Filename.concat "." Sys.argv.(1) else Sys.argv.(1) in
  let e2e = Lazy.force Spec.end_to_end and layers = Lazy.force Spec.per_layer in
  List.iter
    (fun w ->
      let base = [ "--workload"; w; "--seed"; "5"; "--seconds"; "0.2"; "--tiny" ] in
      let plain = run exe (base @ [ "--trace"; "0" ]) in
      List.iter (fun m -> expect (w ^ " emits " ^ fst m) (reports plain m)) e2e;
      expect (w ^ " passes its checks") (failed_count plain = 0 && contains plain "\"correct\": true");
      let traced = run exe (base @ [ "--trace"; "1" ]) in
      List.iter (fun m -> expect (w ^ " traced emits " ^ fst m) (reports traced m)) layers;
      expect (w ^ " traced passes its checks") (failed_count traced = 0);
      let broken = run exe (base @ [ "--trace"; "0"; "--corrupt" ]) in
      expect (w ^ " detects a damaged output") (failed_count broken > 0 && contains broken "\"correct\": false"))
    workloads;
  if !failures > 0 then exit 1;
  Printf.printf "psnbench: %d workloads, %d end-to-end and %d per-layer metrics checked\n" (List.length workloads)
    (List.length e2e) (List.length layers)
