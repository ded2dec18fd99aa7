(* The metric lists of BENCHMARK.json, compiled in, so that the names and
   units the benchmark prints are the ones the file declares. The file is
   flat and written by hand: a plain scan for each entry's "name" and
   "unit" within a section is enough. *)

let json = Embedded.benchmark_json

let find_from i sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length json then None else if String.equal (String.sub json i n) sub then Some i else go (i + 1)
  in
  go i

(* The (name, unit) pairs of one array section, in file order. *)
let metrics section =
  match find_from 0 (Printf.sprintf "%S:" section) with
  | None -> invalid_arg ("BENCHMARK.json has no section " ^ section)
  | Some start ->
    let stop = Option.value ~default:(String.length json) (find_from start "]") in
    (* The string value of [key] at or after [i], and where it ends. *)
    let field key i =
      match find_from i (Printf.sprintf "%S: \"" key) with
      | Some j when j < stop ->
        let k = j + String.length key + 5 in
        let e = String.index_from json k '"' in
        Some (String.sub json k (e - k), e)
      | Some _ | None -> None
    in
    let rec collect i acc =
      match field "name" i with
      | None -> List.rev acc
      | Some (name, e) -> (
        match field "unit" e with
        | None -> invalid_arg ("BENCHMARK.json: no unit for " ^ name)
        | Some (unit, e) -> collect e ((name, unit) :: acc))
    in
    collect start []

let end_to_end = lazy (metrics "end_to_end")
let per_layer = lazy (metrics "per_layer")
