(** The trace-driven forwarding simulator (§6.1).

    Replays a contact trace chronologically and spreads a message
    workload through it under a forwarding algorithm's copy decisions.

    Semantics, matching the paper's assumptions:
    - transfers are instantaneous, so a node that acquires a copy
      mid-contact immediately re-offers it across all of its currently
      active contacts (cascading closure);
    - buffers are infinite and copies are never dropped: forwarding
      copies the message, the sender keeps its copy;
    - minimal progress: any holder in contact with the destination
      delivers, whatever the algorithm says;
    - a message stops spreading once first delivered (only the first
      delivery is measured). *)

type record = {
  message : Message.t;
  delivered : float option;  (** Absolute first-delivery time. *)
  copies : int;
      (** Transmissions performed for this message: every accepted
          relay transfer plus, when the message is delivered through a
          contact, the final transmission to the destination. A message
          delivered at creation (source already co-located, via an
          active contact) therefore counts at least 1; an undelivered,
          never-forwarded message counts 0. *)
  attempts : int;
      (** Transfers tried for this message, including those lost to
          fault injection. Always [>= copies]; equal to [copies] in a
          fault-free run. The gap is the retransmission overhead a real
          deployment would pay under loss. *)
}

type outcome = {
  algorithm : string;
  records : record array;  (** One per workload message, in message order. *)
  copies : int;  (** Total transmissions: sum of per-record [copies]. *)
  attempts : int;  (** Total attempted transfers: sum of per-record [attempts]. *)
}

type scratch
(** Reusable per-run working memory: the event schedule (structure of
    arrays — unboxed times plus packed event codes), the O(n²)
    adjacency buffers, the holder bitsets and the per-message
    bookkeeping. Allocating this anew dominated short runs, so callers
    that simulate many seeds in a row (notably {!Runner} through
    [Parallel.map_env]) create one scratch per domain and pass it to
    every {!run}.

    Reuse is invisible: {!run} re-establishes every invariant it needs
    on entry (message-indexed state is reset; adjacency state is
    self-cleaning after a completed run and rebuilt explicitly after an
    aborted one; schedule entries beyond the current run are never
    read), so the outcome is bit-identical with a fresh, a reused, or
    an omitted scratch — checked by the determinism tests. A scratch
    holds no result state between calls and may be dropped at any time.

    A scratch is single-domain mutable state: never share one between
    concurrent runs. *)

val scratch : unit -> scratch
(** A fresh, empty scratch. Buffers grow on first use and are retained
    at high-water-mark size across runs. *)

val run :
  ?ttl:float ->
  ?faults:Faults.plan ->
  ?scratch:scratch ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  trace:Psn_trace.Trace.t ->
  messages:Message.t list ->
  Algorithm.t ->
  outcome
(** Simulate one run. Message endpoints must lie inside the trace
    population and creation times inside the trace window (in
    particular, a negative [t_create] is rejected); raises
    [Invalid_argument] otherwise, naming the offending node id and the
    population size.

    [ttl], when given, bounds each message's useful lifetime: copies are
    neither transferred nor delivered past [t_create + ttl] (the paper
    assumes infinite lifetimes; the bound supports expiry ablations).
    Must be positive.

    [faults], when given, injects deterministic failures: the run
    replays the {!Faults.degrade}d contact set (node downtime, contact
    truncation), and each attempted transfer may be lost
    ({!Faults.transfer_fails}) — a lost transfer counts in [attempts]
    but leaves no copy, fires no [on_forward], and delivers nothing.
    Fault verdicts are keyed by (message, endpoints, time), never by
    scheduling order, so faulted runs stay bit-identical for any
    [Parallel] fan-out. Endpoint/window validation happens against the
    pristine trace; the degraded trace keeps its population and
    horizon.

    [scratch], when given, supplies the working buffers (see
    {!type-scratch}); when omitted a private scratch is allocated for
    this run. Results are identical either way.

    [telemetry] (default null, in which case instrumentation compiles
    to no-ops) records an ["engine.run"] span tagged with the algorithm
    name, nested ["engine.setup"] / ["engine.drain"] / ["engine.finish"]
    phase spans, and counters for runs, events drained, transmissions,
    attempts and transfers lost to fault injection. Telemetry describes
    the run and never affects it: the outcome is bit-identical whether
    the sink is null or active. *)

val delay : record -> float option
(** Delivery delay [delivered - t_create]. *)
