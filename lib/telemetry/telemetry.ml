module Det_tbl = Psn_det.Det_tbl

type value = Int of int | Float of float | Str of string

type event =
  | Begin of { name : string; args : (string * value) list; ts : float }
  | End of { ts : float }

(* One track's recording. Events are consed newest-first and reversed
   once at [close]; a buffer is only ever touched by the one domain
   that owns its sink, so no synchronisation is needed — the caller's
   [Domain.join] (before {!join}) publishes the writes. *)
type buffer = {
  track : int;
  mutable events : event list;
  counters : (string, int) Hashtbl.t;
  hists : (string, Hist.t) Hashtbl.t;
}

type collector = {
  clock : unit -> float;
  epoch : float;
  main : buffer;
  mutable next_track : int;
  mutable joined : buffer list;  (* child tracks, reverse join order *)
}

type sink = Null | Active of { c : collector; buf : buffer }

module Sink = struct
  type t = sink

  let null = Null
  let is_null = function Null -> true | Active _ -> false
end

let make_buffer track =
  { track; events = []; counters = Hashtbl.create 16; hists = Hashtbl.create 8 }

let create ?(clock = Clock.now_s) () =
  { clock; epoch = clock (); main = make_buffer 0; next_track = 1; joined = [] }

let sink c = Active { c; buf = c.main }

let now c = c.clock () -. c.epoch

(* ---- recording -------------------------------------------------------- *)

let begin_span t ?(args = []) name =
  match t with
  | Null -> ()
  | Active { c; buf } -> buf.events <- Begin { name; args; ts = now c } :: buf.events

let end_span t =
  match t with
  | Null -> ()
  | Active { c; buf } -> buf.events <- End { ts = now c } :: buf.events

let with_span t ?args name f =
  match t with
  | Null -> f ()
  | Active _ ->
    begin_span t ?args name;
    Fun.protect ~finally:(fun () -> end_span t) f

let count t name n =
  match t with
  | Null -> ()
  | Active { buf; _ } ->
    let prev = Option.value ~default:0 (Hashtbl.find_opt buf.counters name) in
    Hashtbl.replace buf.counters name (prev + n)

let hist t name value =
  match t with
  | Null -> ()
  | Active { buf; _ } ->
    let h =
      match Hashtbl.find_opt buf.hists name with
      | Some h -> h
      | None ->
        let h = Hist.create () in
        Hashtbl.replace buf.hists name h;
        h
    in
    Hist.add h value

(* ---- parallel fan-out ------------------------------------------------- *)

let fork t n =
  if n < 0 then invalid_arg "Telemetry.fork: negative child count";
  match t with
  | Null -> Array.make n Null
  | Active { c; _ } ->
    let base = c.next_track in
    c.next_track <- base + n;
    Array.init n (fun i -> Active { c; buf = make_buffer (base + i) })

let join t children =
  match t with
  | Null -> ()
  | Active { c; _ } ->
    Array.iter
      (function
        | Null -> ()
        | Active { buf; _ } -> c.joined <- buf :: c.joined)
      children

(* ---- summarising ------------------------------------------------------ *)

type span = {
  s_name : string;
  s_args : (string * value) list;
  s_track : int;
  s_start : float;
  s_duration : float;
  s_children : span list;
}

type summary = {
  roots : span list;
  counters : (string * int) list;
  hists : (string * Hist.t) list;
  span_hists : (string * Hist.t) list;
  elapsed : float;
  dropped_ends : int;
}

(* Rebuild one track's span forest from its chronological event list.
   An [End] with no open span is dropped (and counted); a [Begin] still
   open at [elapsed] is closed there, so a crashed or abandoned span
   still shows the time it covered. *)
let forest_of ~elapsed buf =
  let dropped = ref 0 in
  (* Stack frames: (name, args, start, reversed children). *)
  let stack = ref [] in
  let roots = ref [] in
  let close_frame (name, args, ts, children) ~until =
    {
      s_name = name;
      s_args = args;
      s_track = buf.track;
      s_start = ts;
      s_duration = until -. ts;
      s_children = List.rev children;
    }
  in
  let push span =
    match !stack with
    | [] -> roots := span :: !roots
    | (n, a, t, children) :: rest -> stack := (n, a, t, span :: children) :: rest
  in
  List.iter
    (fun ev ->
      match ev with
      | Begin { name; args; ts } -> stack := (name, args, ts, []) :: !stack
      | End { ts } -> (
        match !stack with
        | [] -> incr dropped
        | frame :: rest ->
          stack := rest;
          push (close_frame frame ~until:ts)))
    (List.rev buf.events);
  let rec drain () =
    match !stack with
    | [] -> ()
    | frame :: rest ->
      stack := rest;
      push (close_frame frame ~until:elapsed);
      drain ()
  in
  drain ();
  (List.rev !roots, !dropped)

let close c =
  let elapsed = now c in
  let buffers = c.main :: List.rev c.joined in
  let buffers =
    List.sort (fun b1 b2 -> Int.compare b1.track b2.track) buffers
  in
  let counters = Hashtbl.create 16 in
  List.iter
    (fun (buf : buffer) ->
      Det_tbl.iter ~cmp:String.compare
        (fun name n ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt counters name) in
          Hashtbl.replace counters name (prev + n))
        buf.counters)
    buffers;
  let hists = Hashtbl.create 8 in
  let hist_into name v =
    match Hashtbl.find_opt hists name with
    | Some h -> Hist.merge_into ~into:h v
    | None -> Hashtbl.replace hists name (Hist.copy v)
  in
  List.iter
    (fun (buf : buffer) ->
      Det_tbl.iter ~cmp:String.compare (fun name h -> hist_into name h) buf.hists)
    buffers;
  let per_track = List.map (forest_of ~elapsed) buffers in
  let roots = List.concat_map fst per_track in
  (* Wall-time distributions derived from span durations: one histogram
     per span name, merged across tracks. Bucket-sum merging makes the
     result independent of track order; the durations themselves are
     clock readings, so these stay in the time-quarantined half of the
     summary ([span_hists], never compared across schedules). *)
  let span_hists = Hashtbl.create 8 in
  let rec record_span (s : span) =
    let h =
      match Hashtbl.find_opt span_hists s.s_name with
      | Some h -> h
      | None ->
        let h = Hist.create () in
        Hashtbl.replace span_hists s.s_name h;
        h
    in
    Hist.add h s.s_duration;
    List.iter record_span s.s_children
  in
  List.iter record_span roots;
  {
    roots;
    counters = Det_tbl.bindings ~cmp:String.compare counters;
    hists = Det_tbl.bindings ~cmp:String.compare hists;
    span_hists = Det_tbl.bindings ~cmp:String.compare span_hists;
    elapsed;
    dropped_ends = List.fold_left (fun acc (_, d) -> acc + d) 0 per_track;
  }

(* ---- rendering helpers ------------------------------------------------ *)

let string_of_value = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Str s -> s
