(** Crash flight recorder: bounded ring of recent structured events,
    dumped as post-mortem JSON on abnormal death.

    Long-running serving processes die in ways batch runs do not —
    injected crashes, signals, uncaught errors — and the last few
    hundred protocol lines, evictions, failpoint trips and store
    operations before the death are exactly the evidence a post-mortem
    needs. {!note} records into a fixed-capacity ring (oldest events
    overwritten, their count reported as [dropped]); {!dump} writes the
    ring as one JSON object.

    Null-sink discipline: with no recorder {!arm}ed, {!note} costs one
    atomic load. Recording never returns data to the caller, so arming
    the recorder cannot change computed results. Armed recording is
    mutex-serialized — events may arrive from any domain.

    Dump triggers are wired by the CLI and by {!Failpoint}: a [crash]
    action dumps just before its cleanup-free [Unix._exit 170], the
    serve loop dumps on [Interrupt.Interrupted] and uncaught errors.

    Dump format (version 1), built and checked with {!Psn_json.Json}:
    {v
    {"version":1,"reason":"...","recorded":N,"dropped":D,
     "events":[{"seq":0,"label":"serve.line","raw":"..."}, ...]}
    v} *)

val arm : ?cap:int -> string -> unit
(** [arm path] installs a recorder of capacity [cap] (default 256,
    minimum 1) whose {!dump} writes to [path]. Replaces any previous
    recorder. *)

val disarm : unit -> unit

val note : string -> (string * string) list -> unit
(** [note label fields] appends one event. No-op unless {!arm}ed. *)

val dump : reason:string -> unit -> unit
(** Write the post-mortem JSON to the armed path (no-op when
    disarmed). Best-effort: write failures are swallowed — the dump
    path runs where raising would mask the original death. *)

val validate : string -> (int, string) result
(** Check that a dump is strict JSON ({!Psn_json.Json.parse}) with the
    promised top-level shape; returns the length of [events]. Used by
    the crash-matrix test and [psn metrics check --flight]. *)
