(* The repository benchmark. See README.md in this directory.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints, as its last line, one JSON object: with --trace 0 every
   end-to-end metric, with --trace 1 every per-layer metric. The line
   before it records the run's cores and jobs. *)

let workloads =
  [
    (Enum_fig4.name, Enum_fig4.run);
    (Sim_fig9.name, Sim_fig9.run);
    (Serve_session.name, Serve_session.run);
    (Store_replay.name, Store_replay.run);
  ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n  workloads: "
    ^ String.concat ", " (List.map fst workloads));
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let tiny = ref false and corrupt = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      workload := Some w;
      go rest
    | "--seed" :: n :: rest ->
      seed := int_of_string_opt n;
      go rest
    | "--seconds" :: s :: rest ->
      seconds := Option.bind (float_of_string_opt s) (fun s -> if s > 0. then Some s else None);
      go rest
    | "--trace" :: t :: rest ->
      trace := (match t with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | "--tiny" :: rest ->
      tiny := true;
      go rest
    | "--corrupt" :: rest ->
      corrupt := true;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some traced -> (
    match List.assoc_opt w workloads with
    | None -> usage ()
    | Some run -> (w, run, seed, seconds, traced, !tiny, !corrupt))
  | _ -> usage ()

(* Every value with all its digits; JSON has no NaN or infinity. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let w, run, seed, seconds, traced, tiny, corrupt = parse_args () in
  let cores = Domain.recommended_domain_count () in
  let root = ".psnbench_work" in
  let work = Filename.concat root (Printf.sprintf "%s-%d" w (Unix.getpid ())) in
  Util.mkdir_p work;
  let cfg = { Util.seed; seconds; traced; tiny; corrupt; jobs = cores; work } in
  let cleanup () =
    Util.rm_rf work;
    try Sys.rmdir root with Sys_error _ -> ()
  in
  let r = Fun.protect ~finally:cleanup (fun () -> run cfg) in
  let c = r.Util.checks in
  (* Names and units come from BENCHMARK.json. A workload reports the
     layers it runs; the others read 0. *)
  let metrics =
    if traced then begin
      let values = ("run.cores", float_of_int cores) :: r.Util.layers in
      let spec = Lazy.force Spec.per_layer in
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name spec) then invalid_arg ("per-layer metric not in BENCHMARK.json: " ^ name))
        values;
      List.map (fun (name, unit) -> (name, Option.value ~default:0. (List.assoc_opt name values), unit)) spec
    end
    else begin
      let ok_ratio =
        if c.Util.attempted = 0 then 0. else 1. -. (float_of_int c.Util.failed /. float_of_int c.Util.attempted)
      in
      let values =
        [
          ("setup_s", r.Util.setup_s);
          ("ok_ratio", ok_ratio);
          ("peak_rss_mb", Util.peak_rss_mb ());
          ("work_per_s", r.Util.work_per_s);
        ]
      in
      List.map
        (fun (name, unit) ->
          match List.assoc_opt name values with
          | Some v -> (name, v, unit)
          | None -> invalid_arg ("no value for end-to-end metric " ^ name))
        (Lazy.force Spec.end_to_end)
    end
  in
  Printf.printf "# workload=%s seed=%d traced=%b cores=%d jobs=%d reps=%d speed=%.4f attempted=%d failed=%d digest=%s\n"
    w seed traced cores r.Util.run_jobs r.Util.reps r.Util.speed c.Util.attempted c.Util.failed (Util.hex r.Util.digest);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (c.Util.failed = 0 && c.Util.attempted > 0)
    (Int.max 1 c.Util.attempted) c.Util.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
          metrics))
