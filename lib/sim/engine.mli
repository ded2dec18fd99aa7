(** The trace-driven forwarding simulator (§6.1).

    Replays a contact trace chronologically and spreads a message
    workload through it under a forwarding algorithm's copy decisions.

    Semantics, matching the paper's assumptions:
    - transfers are instantaneous, so a node that acquires a copy
      mid-contact immediately re-offers it across all of its currently
      active contacts (cascading closure);
    - buffers are infinite and a live message's copies are never
      dropped: forwarding copies the message, the sender keeps its
      copy (a delivered or expired message's copies are dead, and the
      engine forgets them without changing any outcome);
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
(** Reusable per-run working memory: the run's message-creation events
    (structure of arrays — unboxed times plus message ids), the per-node
    peer lists of active contacts, the holder bitsets, the per-node held
    lists and the per-message bookkeeping; all of it linear in the
    population and the message count. A held list keeps the node's live
    copies in acquisition order; a dead copy (its message delivered, or
    expired under [ttl]) is dropped, keeping the order of the rest, at
    the holder's next exchange. The contact events are not here: they
    belong to the {!type-schedule}, sorted once and shared. Allocating
    this anew dominated short runs, so callers that simulate many seeds
    in a row (notably {!Runner} through [Parallel.map_env]) create one
    scratch per domain and pass it to every {!run_on}.

    Reuse is invisible: every node- or message-indexed length is reset
    when a run acquires the scratch, and capacity beyond it is never
    read, so the outcome is bit-identical with a fresh, a reused (even
    after a run that raised), or an omitted scratch — checked by the
    determinism tests. A scratch holds no result state between calls
    and may be dropped at any time.

    A scratch is single-domain mutable state: never share one between
    concurrent runs. *)

val scratch : unit -> scratch
(** A fresh, empty scratch. Buffers grow on first use and are retained
    at high-water-mark size across runs. *)

val sort_events :
  float array -> int array -> tmp_time:float array -> tmp_code:int array -> int -> unit
(** [sort_events time code ~tmp_time ~tmp_code len] sorts the first
    [len] events of the parallel arrays [time] and [code] in place on
    the (time, code) key, the drain's order. It checks for sorted input
    in one pass and otherwise merge-sorts, using [tmp_time] and
    [tmp_code] (at least [len] long) as the second buffer. It allocates
    nothing, and as equal keys are identical events its result does not
    depend on the buffers' other contents. *)

type schedule
(** The part of a run that depends on neither the workload nor the
    algorithm: the {!Faults.degrade}d trace, the fault plan (whose loss
    channel the runs consult), and the contact start/end events sorted
    on the drain's (time, code) order. Immutable once built: any number
    of runs, on one domain or across [Parallel] workers, may share one
    schedule read-only. *)

val prepare :
  ?faults:Faults.plan -> ?telemetry:Psn_telemetry.Telemetry.sink -> Psn_trace.Trace.t -> schedule
(** Degrade the trace by [faults] (when given) and sort its contact
    events, once. Raises [Invalid_argument] when the plan's population
    differs from the trace's ({!Faults.degrade}) or the population
    exceeds {!Psn_trace.Node.id_bound} (2{^28} - 1, the packed-event
    limit). Records an
    ["engine.prepare"] span on [telemetry] (default null). *)

val run_on :
  ?ttl:float ->
  ?scratch:scratch ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  schedule ->
  messages:Message.t list ->
  Algorithm.t ->
  outcome
(** [run_on schedule ~messages alg] is {!run} on the trace and fault
    plan [schedule] was prepared from, with a bit-identical outcome,
    minus the degrade and the contact sort. Only the run's creation
    events are sorted (in the scratch), then merged into the shared
    contact stream during the drain; the schedule is never written.
    Validation, [ttl], [scratch] and [telemetry] are as for {!run}. *)

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

    [run] is [run_on (prepare ?faults trace)]: callers that simulate
    many runs on one trace and plan should {!prepare} once and call
    {!run_on}.

    [telemetry] (default null, in which case instrumentation compiles
    to no-ops) records an ["engine.run"] span tagged with the algorithm
    name, nested ["engine.setup"] (holding this run's
    ["engine.prepare"]) / ["engine.drain"] / ["engine.finish"] phase
    spans, and counters for runs, events drained, transmissions,
    attempts and transfers lost to fault injection. Telemetry describes
    the run and never affects it: the outcome is bit-identical whether
    the sink is null or active. *)

val delay : record -> float option
(** Delivery delay [delivered - t_create]. *)
