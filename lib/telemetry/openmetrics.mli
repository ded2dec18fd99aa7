(** Labeled metrics registry with OpenMetrics/Prometheus text
    exposition.

    A registry collects counter, gauge and histogram families; each
    registration appends one labeled sample (or, for histograms, the
    cumulative bucket/sum/count expansion of a {!Hist.t}). {!render}
    emits families in name order (via Det_tbl) with samples in
    registration order, so the exposition is a deterministic function
    of registry contents.

    Families registered with [~time_based:true] hold wall-time-derived
    values (span-duration histograms, elapsed seconds). They are
    skipped by [render ~values_only:true] — the surface used by the
    serve [metrics] protocol verb and the CI jobs-diff, which must be
    byte-identical across [--jobs]×[--chunk] schedules. *)

type t

val create : unit -> t

val counter :
  t -> ?help:string -> ?time_based:bool -> ?labels:(string * string) list -> string -> int -> unit
(** Append one sample to a counter family (rendered as [name_total]).
    Metric and label names are sanitized to the OpenMetrics charset
    (dots become underscores). *)

val gauge :
  t -> ?help:string -> ?time_based:bool -> ?labels:(string * string) list -> string -> float -> unit

val histogram :
  t -> ?help:string -> ?time_based:bool -> ?labels:(string * string) list -> string -> Hist.t -> unit
(** Expand a histogram into cumulative [_bucket{le="..."}] samples plus
    [_sum] and [_count]. *)

val render : ?values_only:bool -> t -> string
(** The OpenMetrics text exposition, terminated by [# EOF].
    [~values_only:true] omits every [time_based] family. *)

val of_summary : Telemetry.summary -> t
(** Registry view of a closed collector: counters and value histograms
    as value families ([psn_] prefix), span-duration histograms
    ([psn_span_*_seconds]) and elapsed wall time as [time_based]
    families. Backs [--metrics FILE] on batch sweeps. *)

val validate : string -> (unit, string) result
(** Tiny format checker for the dialect {!render} emits: sample lines
    must parse, reference a family declared by an earlier [# TYPE]
    (with a suffix legal for its kind), and the text must end with
    exactly one [# EOF]. Used by [psn metrics check] in CI. *)
