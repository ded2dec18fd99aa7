(* Per-layer accounting for traced runs.

   Spans come from two places: those the library already records when
   handed a live sink (the engine and runner spans), and those the benchmark
   records around its own calls into a layer. Both land in one
   Telemetry collector per traced phase; [absorb] folds its summary
   into per-name duration samples and self times, where a span's self
   time is its duration minus the time its child spans cover. *)

module T = Core.Telemetry

type t = {
  durations : (string, float list) Hashtbl.t;
  selfs : (string, float) Hashtbl.t;
  counters : (string, int) Hashtbl.t;
}

let create () = { durations = Hashtbl.create 32; selfs = Hashtbl.create 32; counters = Hashtbl.create 32 }

let add_sample t name v =
  Hashtbl.replace t.durations name (v :: Option.value ~default:[] (Hashtbl.find_opt t.durations name))

let add_self t name v =
  Hashtbl.replace t.selfs name (v +. Option.value ~default:0. (Hashtbl.find_opt t.selfs name))

let add_count t name n =
  Hashtbl.replace t.counters name (n + Option.value ~default:0 (Hashtbl.find_opt t.counters name))

let absorb t (summary : T.summary) =
  let rec walk (s : T.span) =
    let covered = List.fold_left (fun acc (c : T.span) -> acc +. c.T.s_duration) 0. s.T.s_children in
    add_sample t s.T.s_name s.T.s_duration;
    add_self t s.T.s_name (s.T.s_duration -. covered);
    List.iter walk s.T.s_children
  in
  List.iter walk summary.T.roots;
  List.iter (fun (name, v) -> add_count t name v) summary.T.counters

(* Run [f] with a live sink and fold what it recorded into [t]. *)
let traced t f =
  let collector = T.create () in
  let v = f (T.sink collector) in
  absorb t (T.close collector);
  v

(* [traced t f] in a traced run, else [f] with the null sink. *)
let traced_if on t f = if on then traced t f else f T.Sink.null

let samples t name = Option.value ~default:[] (Hashtbl.find_opt t.durations name)
let total t name = Util.sum (samples t name)
let self t name = Option.value ~default:0. (Hashtbl.find_opt t.selfs name)
let count t name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt t.counters name))
let calls t name = float_of_int (List.length (samples t name))
let ms_quantile t name q = Util.ms (Util.quantile (samples t name) q)

(* [a / b], or 0 when nothing was measured. *)
let ratio a b = if b > 0. then a /. b else 0.
