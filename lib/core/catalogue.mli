(** The paper's evaluation as one catalogue of printable sections —
    Figs. 1-15, the §5 models, related-work checks, design ablations
    and two fault studies — which [psn experiment] prints.

    The studies behind the sections are built on first use and shared
    by every section of one {!context}, so each is built at most once.
    Every fan-out runs under the context's {!Experiments.exec}, whose
    settings never change a section's text. *)

type context

val context :
  ?exec:Experiments.exec ->
  ?dump:string ->
  ?faults:Psn_sim.Faults.spec ->
  scale:Experiments.scale ->
  Experiments.input ->
  context
(** Single-dataset sections run on the chosen input (a preset or a
    loaded trace) and name it in their titles. Figs. 1, 4, 7, 9, 10 and
    R01 draw fixed presets and add the chosen input as one more row or
    panel when it is not one of them; A01 keeps its fixed preset. Each
    preset's trace is generated at most once per context, on first use.
    [exec] (default {!Experiments.default_exec}) runs every study and
    every section's sweep: A01 is a {!Experiments.sim_study} and A04
    an {!Experiments.enumerate}, and [exec]'s telemetry also reaches
    A02's engine runs. [faults] is the resilience section's spec at
    intensity 1 (default {!Experiments.default_fault_spec}). With
    [dump], Figs. 4,
    5, 7 and 10 write gnuplot files into that directory, and R01 writes
    each row's inter-contact CDF. *)

val scale_line : context -> string
(** ["scale: N messages, k=K, n*=N, S sim seeds"]. *)

val ids : string list
(** Every section id, in print order. *)

val render : context -> string -> string
(** [render ctx id] is section [id]'s text, recorded as one
    ["catalogue.section"] span tagged with [id]. It polls
    {!Psn_robust.Interrupt.check} before and after the section, so a
    signal that arrives while a section without a sweep runs still
    raises [Interrupted] before its text is returned. Raises
    [Invalid_argument] for an id not in {!ids}, or on a [dump] I/O
    failure. *)
