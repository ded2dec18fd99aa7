(** The sliding contact window: the live, bounded substrate every
    serve query runs against.

    A window holds the contacts of the last [span] seconds of stream
    time in a deterministic min-heap keyed by eviction order, under a
    hard [budget] on the number of live contacts. Its one load-bearing
    guarantee is {e batch equivalence}: at any instant, {!trace} is
    byte-identical (under {!Psn_store.Codec.encode_trace}) to
    [Trace.restrict full ~t0:(start w) ~t1:(now w)] of the full stream
    — the qcheck property the serve test suite pins. Everything a
    query answers is a pure function of that trace, which is how the
    incremental server inherits the batch layer's determinism contract
    wholesale.

    Time only moves forward: contacts must arrive in nondecreasing
    [t_start] order (the order {!Psn_trace.Trace_io} files are in),
    and {!advance} rejects moving [now] backwards. Eviction removes
    contacts whose [t_end] fell behind [now - span]; the eviction key
    [(t_end, t_start, a, b)] is a total order on distinct contacts, so
    the evicted set never depends on heap internals. *)

type policy =
  | Drop
      (** Over budget: reject the {e incoming} contact, counting it in
          [dropped] — the window keeps its older contents. *)
  | Slide
      (** Over budget: evict earliest-ending live contacts until the
          newcomer fits, counting them in [budget_evicted] — the
          window favours recency. *)

type config = {
  span : float;  (** Window length, seconds of stream time, [> 0]. *)
  budget : int;  (** Hard cap on live contacts, [> 0]. *)
  policy : policy;  (** What over-budget ingest does. *)
  nodes : int;
      (** Fixed population size, or [0] to grow with the stream (the
          population then ratchets up to the largest endpoint seen and
          never shrinks — ids must stay meaningful across slides). *)
}

type counters = {
  ingested : int;  (** Contacts accepted (including already-expired ones). *)
  evicted : int;  (** Contacts evicted because [t_end <= now - span]. *)
  budget_evicted : int;  (** Contacts evicted by the [Slide] policy. *)
  dropped : int;  (** Contacts rejected by the [Drop] policy. *)
}

type t

val create : config -> (t, string) result
(** An empty window at stream time 0. [Error] on a non-positive span
    or budget, or a negative [nodes]. *)

val config : t -> config
val now : t -> float
(** Current stream time: the largest contact start or {!advance}
    target seen. *)

val start : t -> float
(** The window's left edge, [max 0 (now - span)]. *)

val last_start : t -> float
(** The largest contact start ingested so far — the monotone-ingest
    guard, persisted by snapshots so a restored window rejects exactly
    the same arrivals the original would. *)

val n_nodes : t -> int
(** Current population: [config.nodes] when fixed, else the ratchet. *)

val size : t -> int
(** Live contacts right now. *)

val peak : t -> int
(** High-water mark of {!size} — what the memory-bound property test
    compares against [budget]. *)

val counters : t -> counters

type verdict = Accepted | Rejected_over_budget

val ingest : t -> Psn_trace.Contact.t -> (verdict, string) result
(** Feed one stream contact. Advances [now] to the contact's start,
    evicts what that expires, then applies the budget policy. [Error]
    on out-of-order arrival (start before a previously ingested start)
    or, with a fixed population, an out-of-range endpoint. A contact
    already expired on arrival ([t_end <= start]) is counted ingested
    and evicted without ever going live. *)

val advance : t -> float -> (int, string) result
(** Move stream time forward to the given instant and evict what
    expired; returns the eviction count. [Error] on moving backwards
    (equal is allowed and evicts nothing new). *)

val contacts : t -> Psn_trace.Contact.t list
(** The live contacts, sorted by {!Psn_trace.Contact.compare_by_start}
    — unclipped, as ingested (what snapshots persist). *)

val trace : t -> (Psn_trace.Trace.t, string) result
(** The window as a batch trace: live contacts clipped to
    [[start, now)] and re-based to 0, horizon [now - start] — exactly
    {!Psn_trace.Trace.restrict}'s semantics, so window queries and
    batch queries agree. [Error] while no time has elapsed or no node
    has been seen. *)

val restore :
  config ->
  now:float ->
  last_start:float ->
  n_nodes:int ->
  peak:int ->
  counters:counters ->
  Psn_trace.Contact.t list ->
  (t, string) result
(** Rebuild a window from snapshotted state: configuration, clocks,
    counters and the live contact list. The result behaves identically
    to the window that was snapshotted (the heap is rebuilt, but the
    eviction key is a total order, so observable behaviour cannot tell
    the difference). [Error] on inconsistent state (a live contact
    already expired, [last_start > now], bad population). *)
