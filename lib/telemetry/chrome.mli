(** Chrome trace-event JSON exporter.

    Serialises a {!Telemetry.summary} into the trace-event "JSON Array
    Format" understood by [chrome://tracing] and Perfetto
    ([ui.perfetto.dev]): spans become complete ("X") events, histogram
    digests become counter ("C") events, and each telemetry track gets
    a thread-name metadata row so domain-parallel sections render as
    one horizontal track per worker domain.

    The encoding is canonical — fixed field order, integer microsecond
    timestamps, deterministic event order, printed by {!Psn_json.Json} —
    so two summaries with equal contents serialise to equal bytes (the
    golden test relies on it). *)

val to_json : Telemetry.summary -> string
(** The complete JSON document, ending in a newline. *)

val save : Telemetry.summary -> path:string -> unit
(** {!to_json} written atomically (temp file + rename). Raises
    [Sys_error] if the path is unwritable. *)
