(** Path-explosion metrics (§4.2).

    Given one message's enumeration output, computes the quantities the
    paper defines: [T1] (arrival time of the optimal path), [Tn] (time
    of the n-th path, default n = 2000), and the time to explosion
    [TE = Tn - T1], and compares a message's paths on a pristine and a
    fault-degraded trace. *)

type summary = {
  n_arrivals : int;  (** Paths recorded before enumeration stopped. *)
  delivered : bool;  (** At least one path reached the destination. *)
  t1 : float option;  (** Absolute arrival time of the first path. *)
  optimal_duration : float option;  (** [T1 - t_create] — Fig. 4a's variable. *)
  tn : float option;  (** Absolute time of the n-th arrival, when it exists. *)
  te : float option;  (** [Tn - T1] — Fig. 4b's variable. *)
}

val analyze : n_explosion:int -> Enumerate.result -> summary
(** [n_explosion] is the n of [Tn] (the paper's is 2000). Raises
    [Invalid_argument] if it is not positive. *)

type survival = {
  baseline_paths : int;  (** Arrivals enumerated on the pristine trace. *)
  surviving_paths : int;  (** Arrivals enumerated on the fault-degraded trace. *)
  survival_ratio : float;
      (** [surviving / baseline]; defined as 1 when the baseline itself
          found no path (nothing existed to lose). *)
  still_delivered : bool;  (** The degraded trace still delivers. *)
  delay_penalty : float option;
      (** Degraded optimal arrival minus pristine optimal arrival, when
          both deliver — how much the faults cost the best path. *)
}

val survival : baseline:Enumerate.result -> degraded:Enumerate.result -> survival
(** Compare one message's enumeration on a pristine vs a fault-degraded
    contact set (same message, same config). This is the robustness
    reading of Figs. 4-6: when [baseline_paths] is large, losing nodes
    and contact time should leave [still_delivered] true with a small
    [delay_penalty], because only a vanishing fraction of the exploded
    path set is needed. Both results are assumed to come from the same
    enumeration config; the ratio can exceed 1 when truncation (e.g.
    [stop_at_total]) binds in the baseline. *)
