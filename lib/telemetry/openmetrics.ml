module Det_tbl = Psn_det.Det_tbl

(* A metric family: one name, one type, many labeled samples. Samples
   keep registration order inside a family; families render in name
   order (Det_tbl), so the exposition is a function of registry
   contents only. [time_based] quarantines wall-time-derived families:
   the [?values_only] rendering used by the serve [metrics] verb and
   the CI jobs-diff skips them, keeping that surface bit-identical
   across schedules. *)

type kind = Counter | Gauge | Histogram

type sample = { suffix : string; labels : (string * string) list; value : string }

type family = {
  kind : kind;
  help : string;
  time_based : bool;
  mutable samples : sample list;  (* newest first *)
}

type t = { families : (string, family) Hashtbl.t }

let create () = { families = Hashtbl.create 16 }

(* OpenMetrics names are [a-zA-Z_:][a-zA-Z0-9_:]*; our internal metric
   names use dots ("serve.delivery_delay_s"), so map every unsupported
   character to '_' at registration. *)
let sanitize name =
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    name

let family t ~kind ~help ~time_based name =
  let name = sanitize name in
  match Hashtbl.find_opt t.families name with
  | Some f -> (name, f)
  | None ->
    let f = { kind; help; time_based; samples = [] } in
    Hashtbl.replace t.families name f;
    (name, f)

(* Decimal float rendering: shortest round-trip representation keeps
   the exposition readable while still distinguishing any two distinct
   values — bit-identical inputs render identically, and nothing else
   matters for the jobs-diff. *)
let render_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let le_label v =
  if Float.is_finite v then render_float v else if v > 0. then "+Inf" else "-Inf"

let escape_label v =
  let b = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let push f sample = f.samples <- sample :: f.samples

let counter t ?(help = "") ?(time_based = false) ?(labels = []) name v =
  let _, f = family t ~kind:Counter ~help ~time_based name in
  push f { suffix = "_total"; labels; value = string_of_int v }

let gauge t ?(help = "") ?(time_based = false) ?(labels = []) name v =
  let _, f = family t ~kind:Gauge ~help ~time_based name in
  push f { suffix = ""; labels; value = render_float v }

let histogram t ?(help = "") ?(time_based = false) ?(labels = []) name h =
  let _, f = family t ~kind:Histogram ~help ~time_based name in
  List.iter
    (fun (le, cum) ->
      push f
        { suffix = "_bucket"; labels = labels @ [ ("le", le_label le) ]; value = string_of_int cum })
    (Hist.cumulative h);
  push f { suffix = "_sum"; labels; value = render_float (Hist.sum h) };
  push f { suffix = "_count"; labels; value = string_of_int (Hist.count h) }

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram -> "histogram"

let render ?(values_only = false) t =
  let b = Buffer.create 1024 in
  Det_tbl.iter ~cmp:String.compare
    (fun name f ->
      if not (values_only && f.time_based) then begin
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name (kind_name f.kind));
        if String.length f.help > 0 then
          Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name f.help);
        List.iter
          (fun s ->
            Buffer.add_string b name;
            Buffer.add_string b s.suffix;
            (match s.labels with
            | [] -> ()
            | labels ->
              Buffer.add_char b '{';
              List.iteri
                (fun i (k, v) ->
                  if i > 0 then Buffer.add_char b ',';
                  Buffer.add_string b (Printf.sprintf "%s=%S" (sanitize k) (escape_label v)))
                labels;
              Buffer.add_char b '}');
            Buffer.add_char b ' ';
            Buffer.add_string b s.value;
            Buffer.add_char b '\n')
          (List.rev f.samples)
      end)
    t.families;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* Registry view of a closed telemetry summary: merged counters and
   value histograms as value families; span-duration histograms and
   elapsed wall time flagged [time_based], since their contents are
   clock readings. *)
let of_summary (s : Telemetry.summary) =
  let m = create () in
  List.iter
    (fun (name, v) -> counter m ~help:"Merged telemetry counter" ("psn_" ^ name) v)
    s.Telemetry.counters;
  List.iter
    (fun (name, h) ->
      histogram m ~help:"Value histogram (simulated quantity)" ("psn_" ^ name) h)
    s.Telemetry.hists;
  List.iter
    (fun (name, h) ->
      histogram m ~time_based:true ~help:"Span duration histogram (wall seconds)"
        ("psn_span_" ^ name ^ "_seconds") h)
    s.Telemetry.span_hists;
  gauge m ~time_based:true ~help:"Collector elapsed wall time" "psn_elapsed_seconds"
    s.Telemetry.elapsed;
  m

(* ---- format checker --------------------------------------------------- *)

(* Minimal validator for the exposition dialect we emit, used by
   [psn metrics check] in CI: every sample line must parse, reference a
   family declared by an earlier # TYPE (with a suffix legal for its
   kind), and the text must end with exactly one # EOF. *)

let is_name_char i c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | '0' .. '9' -> i > 0
  | _ -> false

let valid_name s =
  String.length s > 0
  && (let ok = ref true in
      String.iteri (fun i c -> if not (is_name_char i c) then ok := false) s;
      !ok)

let split_sample line =
  (* name[{labels}] value — labels may contain spaces inside quotes,
     so scan for the closing brace rather than splitting on spaces. *)
  match String.index_opt line '{' with
  | None -> (
    match String.index_opt line ' ' with
    | None -> None
    | Some sp ->
      Some
        ( String.sub line 0 sp,
          "",
          String.trim (String.sub line (sp + 1) (String.length line - sp - 1)) ))
  | Some lb -> (
    match String.rindex_opt line '}' with
    | None -> None
    | Some rb when rb < lb -> None
    | Some rb ->
      Some
        ( String.sub line 0 lb,
          String.sub line (lb + 1) (rb - lb - 1),
          String.trim (String.sub line (rb + 1) (String.length line - rb - 1)) ))

let strip_suffix ~kind name =
  let drop suffix =
    if String.length name > String.length suffix
       && String.equal suffix
            (String.sub name (String.length name - String.length suffix) (String.length suffix))
    then Some (String.sub name 0 (String.length name - String.length suffix))
    else None
  in
  match kind with
  | "counter" -> drop "_total"
  | "histogram" -> (
    match drop "_bucket" with
    | Some base -> Some base
    | None -> ( match drop "_sum" with Some base -> Some base | None -> drop "_count"))
  | _ -> Some name

let validate text =
  let lines = String.split_on_char '\n' text in
  let families = Hashtbl.create 16 in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec go i saw_eof = function
    | [] -> if saw_eof then Ok () else Error "missing terminating # EOF"
    | "" :: rest -> go (i + 1) saw_eof rest
    | line :: rest ->
      if saw_eof then err "line %d: content after # EOF" i
      else if Char.equal line.[0] '#' then begin
        match String.split_on_char ' ' line with
        | [ "#"; "EOF" ] -> go (i + 1) true rest
        | "#" :: "TYPE" :: name :: [ kind ] ->
          if not (valid_name name) then err "line %d: bad family name %S" i name
          else if
            not (List.exists (String.equal kind) [ "counter"; "gauge"; "histogram" ])
          then err "line %d: unknown type %S" i kind
          else if Hashtbl.mem families name then err "line %d: duplicate # TYPE %s" i name
          else begin
            Hashtbl.replace families name kind;
            go (i + 1) saw_eof rest
          end
        | "#" :: "HELP" :: name :: _ ->
          if Hashtbl.mem families name then go (i + 1) saw_eof rest
          else err "line %d: # HELP before # TYPE for %s" i name
        | _ -> err "line %d: malformed comment %S" i line
      end
      else begin
        match split_sample line with
        | None -> err "line %d: malformed sample %S" i line
        | Some (name, _, value) ->
          if not (valid_name name) then err "line %d: bad metric name %S" i name
          else if Option.is_none (float_of_string_opt value)
                  && not (String.equal value "+Inf")
          then err "line %d: unparseable value %S" i value
          else begin
            let known =
              Det_tbl.fold ~cmp:String.compare
                (fun fam kind acc ->
                  acc
                  ||
                  (* counter/histogram samples must carry a suffix legal
                     for their kind; a bare name only matches a gauge *)
                  match strip_suffix ~kind name with
                  | Some base -> String.equal base fam
                  | None -> false)
                families false
            in
            if known then go (i + 1) saw_eof rest
            else err "line %d: sample %S has no preceding # TYPE" i name
          end
      end
  in
  go 1 false lines
