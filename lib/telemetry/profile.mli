(** Human-readable profile report.

    Renders a {!Telemetry.summary} as: a coverage line (what fraction
    of the run's wall time the main track's root spans account for), a
    span tree aggregated by name path — calls, total wall seconds and
    self seconds (total minus children) per row, heaviest first — the
    merged counter table, and quantile digests of the value and
    span-duration histograms.

    Spans from all tracks aggregate into one tree, so a section fanned
    over [N] domains reports the {e sum} of the domains' busy time
    (its total can legitimately exceed wall time); the coverage line
    uses the main track only, where the CLI's root span nests the whole
    command. Deterministic: equal summaries render to equal bytes. *)

val render : ?title:string -> Telemetry.summary -> string

val coverage : Telemetry.summary -> float
(** Percentage of [summary.elapsed] covered by track-0 root spans. *)
