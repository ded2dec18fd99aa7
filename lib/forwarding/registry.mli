(** Name-indexed catalogue of forwarding algorithms. *)

type entry = {
  name : string;  (** Stable lookup key, e.g. ["greedy-total"]. *)
  label : string;  (** The paper's display name, e.g. ["Greedy Total"]. *)
  online : bool;
      (** [true] when the algorithm decides from information available
          at decision time (contact history, per-encounter state) —
          deployable against a live stream. [false] for the oracles
          (Greedy Total, Dynamic Programming, BubbleRap) whose
          construction consumes the whole trace, future included:
          meaningful for batch hindsight baselines, not for serving. *)
  factory : Psn_sim.Algorithm.factory;
}

val paper_six : entry list
(** The six algorithms of Fig. 9, in the paper's order: Epidemic,
    FRESH, Greedy, Greedy Total, Greedy Online, Dynamic Programming. *)

val extensions : entry list
(** Direct, Random(0.5), Spray and Wait (L = 8), PRoPHET, Two-Hop, and
    Delegation forwarding (rate- and destination-quality variants) —
    algorithms from the related-work canon and the authors' follow-up
    work, provided for cost/ablation studies. *)

val all : entry list
(** [paper_six @ extensions]. *)

val online : entry list
(** The entries with [online = true], in [all]'s order — the candidate
    set [psn serve]'s adaptive router rebalances across (an oracle in
    a live window would silently become a different, weaker algorithm:
    its "future" ends at the window edge). *)

val find : string -> (entry, string) result
(** Look up by [name]; the error lists the valid names. *)
