(** The serve line protocol: parsing only, no I/O.

    One request per line. A contact event is a native
    {!Psn_trace.Trace_io} contact line ([a,b,t_start,t_end] — commas),
    read by the same {!Psn_trace.Contact.of_fields}, so the two syntaxes
    and their bounds (ids below {!Psn_trace.Node.id_bound}) agree by
    construction and a trace file body can be piped straight in;
    everything else is space-separated words:

    {v
    a,b,t_start,t_end           ingest one contact event
    advance T                   move stream time forward to T
    inject SRC DST [T]          route a live message (default T = now)
    paths SRC DST [T]           count/diversity of valid paths
    delivery SRC DST [T]        per-strategy delivery probe
    route                       current router pick and weights
    stats                       window, session and per-strategy counters
    metrics                     OpenMetrics exposition (value metrics)
    snapshot                    persist session state to the store
    quit                        stop serving
    v}

    Blank lines and [#]-comments parse to {!Blank} (scripts can be
    annotated). Times for [paths]/[delivery] default to the window
    start. Parse errors name the offence; they never raise. *)

type query =
  | Inject of { src : Psn_trace.Node.id; dst : Psn_trace.Node.id; t : float option }
  | Paths of { src : Psn_trace.Node.id; dst : Psn_trace.Node.id; t : float option }
  | Delivery of { src : Psn_trace.Node.id; dst : Psn_trace.Node.id; t : float option }
  | Route
  | Stats
  | Metrics
  | Snapshot
  | Quit

type line =
  | Blank
  | Contact of Psn_trace.Contact.t
  | Advance of float
  | Query of query

val parse : string -> (line, string) result
