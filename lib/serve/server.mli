(** The serving engine: one long-lived session over a contact stream.

    A server owns a sliding {!Window}, an adaptive {!Multipath}
    router, and the set of live (injected, not yet delivered or
    expired) messages; {!handle} processes one {!Protocol} line and
    returns the reply lines. All I/O stays with the caller — the
    library never prints, reads a clock, or touches a socket, which is
    what makes a served session replayable in [dune runtest].

    {2 Query semantics and determinism}

    Every query is answered as a {e pure function} of the window trace
    ({!Window.trace} — [Trace.restrict]-equivalent clip of the live
    contacts) and the session state, using the batch machinery:
    [paths] enumerates over the rasterised window, [delivery] and live
    message evaluation run the forwarding engine per strategy, fanned
    out through {!Psn_sim.Parallel} keyed by input index. Hence the
    inherited contract: the same line sequence yields byte-identical
    replies for any [jobs] × [chunk] — pinned by the serve determinism
    tests.

    Injected messages are (re)evaluated at each [advance]: a message
    whose creation instant has slipped behind the window expires (a
    failure observation for its strategy); one the current window
    delivers is reported and completes (a success observation feeding
    the router's EWMAs, with the transfer-loss fraction from the
    faults layer); otherwise it stays live. The strategy is fixed at
    inject time — the router's pick then — so rebalancing shows up in
    {e routing} decisions, never in rewriting history.

    {2 Failure injection and snapshots}

    Named failpoint sites: [serve.ingest] (per contact event, keyed by
    the ingest count), [serve.evict] (per advance, keyed by the
    advance count), [serve.snapshot] (per snapshot write, keyed by the
    count of {e writes}, drains included). {!write_snapshot} persists
    the whole session —
    configuration, window clocks and live contacts, live messages,
    router EWMAs, counters — as canonical text (hex floats, so every
    value round-trips bit-exactly) in a {!Psn_store.Codec.Blob} frame
    under [Key.named ~family:"serve-snapshot" session]; {!restore}
    rebuilds a server that continues byte-identically. *)

type config = {
  window : Window.config;
  delta : float;  (** Rasterisation step for [paths] queries, [> 0]. *)
  k : int;  (** Paths retained per node in enumeration, [> 0]. *)
  strategies : string list;
      (** Registry names the router balances across; must all be
          {!Psn_forwarding.Registry.online} (an oracle's "future"
          would end at the window edge, silently changing the
          algorithm). Empty means every online entry. *)
  router : Multipath.config;
  faults : Psn_sim.Faults.spec option;
      (** When set, compiled against each query window: contact-set
          channels degrade what queries see, the loss channel fails
          transfers — and the observed loss feeds the router. *)
}

val default_config : config
(** 3600 s window, budget 200000, [Slide] policy, growing population;
    [delta] 10, [k] 64; every online strategy;
    {!Multipath.default_config}; no faults. *)

type t

val create :
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  ?store:Psn_store.Store.t ->
  ?session:string ->
  ?jobs:int ->
  ?chunk:int ->
  config ->
  (t, string) result
(** A fresh session. [store]/[session] (default ["default"]) enable
    snapshots; [jobs] (default 1) and [chunk] control query fan-out
    and cannot change any reply. [Error] on invalid configuration or
    an unknown/oracle strategy name. *)

val handle : t -> string -> [ `Reply of string list | `Stop of string list ]
(** Process one protocol line. Replies are in protocol order; errors
    (parse failures, out-of-window times, unknown nodes) come back as
    [err ...] reply lines, never exceptions — the only exceptions that
    escape are injected failpoint raises and [Sys_error] from store
    writes. [`Stop] is returned exactly for [quit]. *)

val write_snapshot : t -> (string * int, string) result
(** Persist the session under its store/session name; returns the
    entry's key hex and the snapshot payload size in bytes. [Error]
    when the server has no store. *)

val snapshot_text : t -> string
(** The canonical snapshot encoding (what {!write_snapshot} wraps in a
    blob frame) — exposed for tests and round-trip checks. *)

val restore :
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  ?store:Psn_store.Store.t ->
  ?session:string ->
  ?jobs:int ->
  ?chunk:int ->
  string ->
  (t, string) result
(** Rebuild a session from {!snapshot_text} output. The semantic
    configuration comes from the snapshot; [jobs]/[chunk]/[telemetry]
    are fresh runtime choices (they cannot change replies). The
    restored server's subsequent replies are byte-identical to the
    original server's — the kill-and-resume CI check. Never raises:
    every row passes the check the live verb that made it runs, so a
    malformed or crafted snapshot is an [Error] ("snapshot: ...")
    rather than a server whose later replies raise. *)

type summary = {
  s_now : float;
  s_start : float;
  s_contacts : int;  (** Live contacts in the window. *)
  s_peak : int;  (** Window high-water mark. *)
  s_nodes : int;
  s_live : int;  (** Live injected messages. *)
  s_ingested : int;
  s_evicted : int;
  s_budget_evicted : int;
  s_dropped : int;
  s_delivered : int;
  s_expired : int;
  s_snapshots : int;
      (** [snapshot] {e commands} served — automatic end-of-stream
          drain writes are deliberately not counted, so a resumed
          transcript's [stats] lines match an uninterrupted run's. *)
}

val summary : t -> summary
(** The counters behind the [stats] reply, for [psn experiment serve] and tests. *)

val registry : t -> Psn_telemetry.Openmetrics.t
(** The session's metrics registry: protocol counters, window and
    router gauges (per-strategy EWMA success/delay/loss/score under an
    [algo] label), and the simulated-quantity histograms (delivery
    delay, ingest batch size). Every family is a value metric —
    byte-identical across [jobs]×[chunk] — so callers may freely add
    their own [time_based] families before rendering. *)

val metrics_text : t -> string
(** The values-only OpenMetrics exposition of {!registry} — the
    [metrics] reply body, also what [--metrics-out] snapshots. *)
