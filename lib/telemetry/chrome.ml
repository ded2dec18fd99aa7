(* Chrome trace-event JSON (the "JSON Array Format" that
   chrome://tracing and Perfetto load): one complete ("X") event per
   span, one counter ("C") event per histogram digest, one metadata
   ("M") thread-name row per track so domains show as separate tracks.

   Output is canonical: fixed field order, integer microseconds,
   events in (track, recording) order — so with a deterministic clock
   the bytes are stable, which is what the golden test pins. *)

module Json = Psn_json.Json

let json_float f = Json.Num (Printf.sprintf "%.6g" f)
let micros s = Json.int (int_of_float ((s *. 1e6) +. 0.5))

let event head ~tid args =
  Json.Obj (head @ [ ("pid", Json.int 1); ("tid", Json.int tid); ("args", Json.Obj args) ])

let metadata name tid label =
  event [ ("name", Json.Str name); ("ph", Json.Str "M") ] ~tid [ ("name", Json.Str label) ]

let rec spans (s : Telemetry.span) =
  let arg = function
    | Telemetry.Int i -> Json.int i
    | Telemetry.Float f -> json_float f
    | Telemetry.Str s -> Json.Str s
  in
  event
    [
      ("name", Json.Str s.Telemetry.s_name);
      ("cat", Json.Str "psn");
      ("ph", Json.Str "X");
      ("ts", micros s.Telemetry.s_start);
      ("dur", micros s.Telemetry.s_duration);
    ]
    ~tid:s.Telemetry.s_track
    (List.map (fun (k, v) -> (k, arg v)) s.Telemetry.s_args)
  :: List.concat_map spans s.Telemetry.s_children

let to_json (summary : Telemetry.summary) =
  let tracks =
    List.map (fun (s : Telemetry.span) -> s.Telemetry.s_track) summary.Telemetry.roots
    |> List.sort_uniq Int.compare
  in
  let thread t = metadata "thread_name" t (if t = 0 then "main" else Printf.sprintf "worker %d" t) in
  (* Histogram digests as counter tracks: one "C" event per histogram
     at the close instant, its quantiles as parallel series. Value and
     span-duration histograms keep distinct name prefixes so the two
     determinism regimes stay visually separate in the viewer. *)
  let hist_counter prefix (name, h) =
    let d = Hist.digest h and ts = micros summary.Telemetry.elapsed in
    event
      [ ("name", Json.Str (prefix ^ name)); ("ph", Json.Str "C"); ("ts", ts) ]
      ~tid:0
      (List.map
         (fun (k, v) -> (k, json_float v))
         [ ("p50", d.Hist.d_p50); ("p90", d.Hist.d_p90); ("p99", d.Hist.d_p99); ("p999", d.Hist.d_p999) ])
  in
  let events =
    (metadata "process_name" 0 "psn" :: List.map thread tracks)
    @ List.concat_map spans summary.Telemetry.roots
    @ List.map (hist_counter "hist:") summary.Telemetry.hists
    @ List.map (hist_counter "span:") summary.Telemetry.span_hists
  in
  let doc = Json.Obj [ ("traceEvents", Json.Rows events); ("displayTimeUnit", Json.Str "ms") ] in
  Json.to_string doc ^ "\n"

let save summary ~path =
  let tmp = path ^ ".tmp" in
  let oc = Out_channel.open_bin tmp in
  Out_channel.output_string oc (to_json summary);
  Out_channel.close oc;
  Sys.rename tmp path
