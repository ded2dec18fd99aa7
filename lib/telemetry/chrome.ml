(* Chrome trace-event JSON (the "JSON Array Format" that
   chrome://tracing and Perfetto load): one complete ("X") event per
   span, one counter ("C") event per histogram digest, one metadata
   ("M") thread-name row per track so domains show as separate tracks.

   Output is canonical: fixed field order, integer microseconds,
   events in (track, recording) order — so with a deterministic clock
   the bytes are stable, which is what the golden test pins. *)

let buf_add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let buf_add_value b = function
  | Telemetry.Int i -> Buffer.add_string b (string_of_int i)
  | Telemetry.Float f -> Buffer.add_string b (Printf.sprintf "%.6g" f)
  | Telemetry.Str s -> buf_add_json_string b s

let micros s = int_of_float ((s *. 1e6) +. 0.5)

let add_event b ~first fields =
  if not !first then Buffer.add_string b ",\n";
  first := false;
  Buffer.add_string b "  {";
  List.iteri
    (fun i field ->
      if i > 0 then Buffer.add_char b ',';
      field b)
    fields;
  Buffer.add_char b '}'

let str_field key v b =
  buf_add_json_string b key;
  Buffer.add_char b ':';
  buf_add_json_string b v

let int_field key v b =
  buf_add_json_string b key;
  Buffer.add_char b ':';
  Buffer.add_string b (string_of_int v)

let args_field args b =
  buf_add_json_string b "args";
  Buffer.add_char b ':';
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      buf_add_json_string b k;
      Buffer.add_char b ':';
      buf_add_value b v)
    args;
  Buffer.add_char b '}'

let track_name = function 0 -> "main" | t -> Printf.sprintf "worker %d" t

let rec add_span b ~first (s : Telemetry.span) =
  add_event b ~first
    [
      str_field "name" s.Telemetry.s_name;
      str_field "cat" "psn";
      str_field "ph" "X";
      int_field "ts" (micros s.Telemetry.s_start);
      int_field "dur" (micros s.Telemetry.s_duration);
      int_field "pid" 1;
      int_field "tid" s.Telemetry.s_track;
      args_field s.Telemetry.s_args;
    ];
  List.iter (add_span b ~first) s.Telemetry.s_children

let tracks_of (summary : Telemetry.summary) =
  let tracks = Hashtbl.create 8 in
  List.iter (fun (s : Telemetry.span) -> Hashtbl.replace tracks s.Telemetry.s_track ()) summary.Telemetry.roots;
  Psn_det.Det_tbl.keys ~cmp:Int.compare tracks

let to_json (summary : Telemetry.summary) =
  let b = Buffer.create 4096 in
  let first = ref true in
  Buffer.add_string b "{\"traceEvents\":[\n";
  add_event b ~first
    [
      str_field "name" "process_name";
      str_field "ph" "M";
      int_field "pid" 1;
      int_field "tid" 0;
      args_field [ ("name", Telemetry.Str "psn") ];
    ];
  List.iter
    (fun track ->
      add_event b ~first
        [
          str_field "name" "thread_name";
          str_field "ph" "M";
          int_field "pid" 1;
          int_field "tid" track;
          args_field [ ("name", Telemetry.Str (track_name track)) ];
        ])
    (tracks_of summary);
  List.iter (add_span b ~first) summary.Telemetry.roots;
  (* Histogram digests as counter tracks: one "C" event per histogram
     at the close instant, its quantiles as parallel series. Value and
     span-duration histograms keep distinct name prefixes so the two
     determinism regimes stay visually separate in the viewer. *)
  let hist_counter prefix (name, h) =
    let d = Hist.digest h in
    add_event b ~first
      [
        str_field "name" (prefix ^ name);
        str_field "ph" "C";
        int_field "ts" (micros summary.Telemetry.elapsed);
        int_field "pid" 1;
        int_field "tid" 0;
        args_field
          [
            ("p50", Telemetry.Float d.Hist.d_p50);
            ("p90", Telemetry.Float d.Hist.d_p90);
            ("p99", Telemetry.Float d.Hist.d_p99);
            ("p999", Telemetry.Float d.Hist.d_p999);
          ];
      ]
  in
  List.iter (hist_counter "hist:") summary.Telemetry.hists;
  List.iter (hist_counter "span:") summary.Telemetry.span_hists;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b

let save summary ~path =
  let tmp = path ^ ".tmp" in
  let oc = Out_channel.open_bin tmp in
  Out_channel.output_string oc (to_json summary);
  Out_channel.close oc;
  Sys.rename tmp path
