(** The paper's evaluation as one catalogue of printable sections —
    Figs. 1-15, the §5 models, related-work checks, design ablations
    and two fault studies — which [psn experiment] prints.

    The studies behind the sections are built on first use and shared
    by every section of one {!context}, so each is built at most once.
    Output does not depend on [jobs] or [chunk], and a [store] only
    replays what it would compute. *)

type context

val context :
  ?jobs:int ->
  ?chunk:int ->
  ?store:Psn_store.Store.t ->
  ?retries:int ->
  ?checkpoint:int ->
  ?dump:string ->
  scale:Experiments.scale ->
  Psn_trace.Dataset.t ->
  context
(** Single-dataset sections run on the given dataset and name it in
    their titles. Figs. 1, 7, 9, R01 and A01 keep their fixed datasets;
    Figs. 4 and 10 add the given one to theirs. The sweep settings go
    to the studies as in {!Experiments.enumeration_study}. With [dump],
    Figs. 4, 5, 7 and 10 also write gnuplot files into that directory. *)

val scale_line : context -> string
(** ["scale: N messages, k=K, n*=N, S sim seeds"]. *)

val ids : string list
(** Every section id, in print order. *)

val render : context -> string -> string
(** [render ctx id] is section [id]'s text. Raises [Invalid_argument]
    for an id not in {!ids}, or on a [dump] I/O failure. *)
