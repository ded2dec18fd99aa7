(* Crash flight recorder: a bounded ring of recent structured events,
   dumped as a post-mortem JSON when the process dies abnormally — an
   injected [crash] failpoint, a signal, or an uncaught error.

   Recording follows the telemetry null-sink discipline: with no
   recorder armed, [note] is one atomic load and a branch. Armed
   recording takes a mutex — events arrive from whichever domain hits
   a store insert or a task retry, and the ring index must not race —
   but the recorder never feeds anything back to its callers, so
   arming it cannot change computed results.

   The dump deliberately happens on the abnormal-exit path itself
   (including inside Failpoint's [crash] action, just before the
   cleanup-free [Unix._exit]): a flight recorder that relied on
   orderly shutdown would miss exactly the deaths it exists for. *)

type entry = { seq : int; label : string; fields : (string * string) list }

type recorder = {
  path : string;
  cap : int;
  ring : entry option array;
  mutable next_seq : int;
  lock : Mutex.t;
}

let default_cap = 256

let current : recorder option Atomic.t = Atomic.make None

let arm ?(cap = default_cap) path =
  let cap = Int.max 1 cap in
  Atomic.set current
    (Some { path; cap; ring = Array.make cap None; next_seq = 0; lock = Mutex.create () })

(* Test hook: resets the process-global recorder between tests. *)
let[@lint.allow "dead-export"] disarm () = Atomic.set current None

let note label fields =
  match Atomic.get current with
  | None -> ()
  | Some r ->
    Mutex.lock r.lock;
    let seq = r.next_seq in
    r.next_seq <- seq + 1;
    r.ring.(seq mod r.cap) <- Some { seq; label; fields };
    Mutex.unlock r.lock

(* ---- JSON dump -------------------------------------------------------- *)

module Json = Psn_json.Json

let render ~reason r =
  let recorded = Int.min r.next_seq r.cap in
  let event e =
    let fields = List.map (fun (k, v) -> (k, Json.Str v)) e.fields in
    Json.Obj (("seq", Json.int e.seq) :: ("label", Json.Str e.label) :: fields)
  in
  (* Oldest surviving event first: the ring holds seqs
     [next_seq - recorded, next_seq). *)
  let events = List.init recorded (fun i -> r.ring.((r.next_seq - recorded + i) mod r.cap)) in
  Json.to_string
    (Json.Obj
       [
         ("version", Json.int 1);
         ("reason", Json.Str reason);
         ("recorded", Json.int recorded);
         ("dropped", Json.int (Int.max 0 (r.next_seq - r.cap)));
         ("events", Json.Arr (List.filter_map (Option.map event) events));
       ])
  ^ "\n"

(* Best-effort single write: the dump path runs where raising would
   mask the original death, so write errors are swallowed. No
   tmp+rename dance — a crash dump half-written because the disk died
   is still more evidence than no dump, and the validator catches
   truncation. *)
let dump ~reason () =
  match Atomic.get current with
  | None -> ()
  | Some r -> (
    Mutex.lock r.lock;
    let text = render ~reason r in
    Mutex.unlock r.lock;
    match open_out_bin r.path with
    | oc ->
      (try output_string oc text with Sys_error _ -> ());
      (try close_out oc with Sys_error _ -> ())
    | exception Sys_error _ -> ())

(* ---- post-mortem validation ------------------------------------------- *)

(* Strict JSON plus the shape the dump promises: a top-level object
   with "version", "reason" and an "events" array. Returns the event
   count so tests can assert the crash actually left evidence behind. *)
let validate text =
  match Json.parse text with
  | Error _ as e -> e
  | Ok (Json.Obj m) when List.mem_assoc "version" m && List.mem_assoc "reason" m -> (
    match List.assoc_opt "events" m with
    | Some (Json.Arr events) -> Ok (List.length events)
    | _ -> Error "not a flight-recorder dump (no events array)")
  | Ok _ -> Error "not a flight-recorder dump (missing version/reason/events)"
