(** Deterministic-by-construction telemetry: spans, counters, histograms.

    Instrumented code receives a {!sink} and records into it; a sink is
    either {!Sink.null} — every recording call is a single pattern
    match, so a disabled build path costs near nothing — or a live
    handle into a {!collector}. Telemetry {e describes} a run and never
    feeds back into it: no recording function returns data to the
    instrumented code, so with any sink the computed results are
    bit-identical to an uninstrumented run (the determinism contract;
    only the wall-clock {e timestamps} inside the telemetry output vary
    between runs).

    Concurrency model: every sink wraps one per-domain buffer that only
    its owning domain may touch. A parallel section {!fork}s one child
    sink per worker before spawning, hands child [i] to worker [i], and
    {!join}s them (from the owning domain, after [Domain.join]) — so
    recording is lock-free, and merged output depends only on the fork
    order, never on scheduling. Counters merge by summation
    (monotonically), histograms bucket-wise; spans keep their track.

    Timestamps come from {!Clock.now_s} relative to the collector's
    epoch; tests inject a fake [?clock] to make output byte-stable. *)

type value = Int of int | Float of float | Str of string
(** Span argument values (rendered into Chrome trace [args]). *)

type collector
(** Owns the clock epoch and all buffers recorded under it. *)

type sink
(** A recording handle: {!Sink.null} or one track of a collector. *)

module Sink : sig
  type t = sink

  val null : t
  (** The disabled sink: all recording calls are no-ops. *)

  val is_null : t -> bool
end

val create : ?clock:(unit -> float) -> unit -> collector
(** Fresh collector; the epoch is one [clock] reading (default
    {!Clock.now_s}), so all recorded timestamps are relative offsets. *)

val sink : collector -> sink
(** The collector's main-track (track 0) sink, owned by the creating
    domain. *)

(** {1 Recording} *)

val with_span : sink -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f ()] inside a span: begin before, end
    after — also on exception, so the tree stays balanced. On the null
    sink this is exactly [f ()]. *)

val begin_span : sink -> ?args:(string * value) list -> string -> unit
(** Open a span by hand (prefer {!with_span}). A span still open when
    the collector {!close}s is ended there, so its time is not lost. *)

val end_span : sink -> unit
(** Close the innermost open span. An unbalanced [end_span] (nothing
    open on this track) is dropped and counted in
    [summary.dropped_ends], never an error. *)

val count : sink -> string -> int -> unit
(** [count t name n] adds [n] to the named counter on this track;
    {!close} merges tracks by summation. *)

val hist : sink -> string -> float -> unit
(** [hist t name v] records [v] into the named {!Hist.t} on this track.
    {!close} merges tracks by bucket-wise summation, so the merged
    histogram — and every digest derived from it — is independent of
    fork and join order. Record {e simulated} quantities here (delays,
    batch sizes, path counts); wall-time distributions come for free
    from span durations via [summary.span_hists]. *)

(** {1 Parallel fan-out} *)

val fork : sink -> int -> sink array
(** [fork t n] allocates [n] child sinks on fresh tracks (in index
    order, so track ids are deterministic). Call from the domain owning
    [t], before spawning workers; forking the null sink yields null
    children. Raises [Invalid_argument] on a negative count. *)

val join : sink -> sink array -> unit
(** Merge forked children back into the collector. Must run on the
    domain owning [t] {e after} the workers have been joined —
    [Domain.join] is what publishes their buffer writes. Children are
    merged in array order; joining into the null sink is a no-op. *)

(** {1 Results} *)

type span = {
  s_name : string;
  s_args : (string * value) list;
  s_track : int;
  s_start : float;  (** Seconds since the collector epoch. *)
  s_duration : float;
  s_children : span list;  (** In start order. *)
}

type summary = {
  roots : span list;  (** Top-level spans, grouped by ascending track. *)
  counters : (string * int) list;  (** Merged across tracks, name-sorted. *)
  hists : (string * Hist.t) list;
      (** Value histograms from {!hist}, merged across tracks,
          name-sorted. Schedule-independent: safe to golden and to diff
          across [--jobs]×[--chunk]. *)
  span_hists : (string * Hist.t) list;
      (** Wall-time histograms of span durations, one per span name,
          name-sorted. Time-quarantined: never byte-stable across
          runs. *)
  elapsed : float;  (** Clock at close minus epoch. *)
  dropped_ends : int;  (** Unbalanced {!end_span} calls discarded. *)
}

val close : collector -> summary
(** Read the clock once more, close any still-open spans at that time,
    and merge every joined track. Call after all forked children are
    joined; buffers are not consumed (closing twice re-summarises). *)

val string_of_value : value -> string
