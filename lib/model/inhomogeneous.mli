(** The two-class inhomogeneous model of §5.2.

    The paper explains the empirical T1/TE quadrants by splitting nodes
    into high contact rate ('in') and low contact rate ('out') classes:
    explosion among nodes of rate ≥ λ proceeds at rate λ, so

    - in → in: T1 small, TE small;
    - in → out: T1 small, TE large;
    - out → in: T1 large (≈ 1/λ_src to escape the source), TE small;
    - out → out: both large.

    This module provides those qualitative predictions, the first-path
    time scale H = ln N / λ, and a Monte-Carlo of the heterogeneous-rate
    jump process that measures T1 and TE per quadrant so the prediction
    table can be checked quantitatively. *)

type classes = {
  n : int;  (** Total population. *)
  frac_high : float;  (** Fraction of 'in' (high-rate) nodes, in (0, 1). *)
  rate_high : float;  (** λ of 'in' nodes. *)
  rate_low : float;  (** λ of 'out' nodes; [0 < rate_low <= rate_high]. *)
}

val check : classes -> unit
(** Raises [Invalid_argument] on inconsistent parameters. *)

type quadrant = In_in | In_out | Out_in | Out_out

val pp_quadrant : Format.formatter -> quadrant -> unit
(** ["in-in"], ["in-out"], … *)

val all_quadrants : quadrant list
(** In the paper's order: in-in, in-out, out-in, out-out. *)

type prediction = { t1_small : bool; te_small : bool }

val predict : quadrant -> prediction
(** The §5.2 hypothesis table. *)

val first_path_scale : classes -> quadrant -> float
(** Order-of-magnitude prediction for T1: [ln N / λ_high] when the
    source is high-rate, plus an extra [1 / λ_low] escape term when it
    is low-rate. *)

type quadrant_stats = {
  quadrant : quadrant;
  mean_t1 : float;  (** Mean first-arrival time over delivered messages. *)
  sd_t1 : float;  (** Standard deviation of T1. *)
  mean_te : float;  (** Mean explosion time over exploded messages. *)
  sd_te : float;
      (** Standard deviation of TE — the paper's Fig. 8 signature for a
          low-rate destination is large TE {e variability}. *)
  deliveries : int;
  explosions : int;
  messages : int;
}

val simulate :
  classes ->
  rng:Psn_prng.Rng.t ->
  messages_per_quadrant:int ->
  n_explosion:int ->
  t_end:float ->
  quadrant_stats list
(** Monte-Carlo of the heterogeneous jump process with symmetric
    mass-action contacts: pair [(i, j)] meets at rate [λ_i λ_j / Σλ]
    (so each node's total contact rate is ≈ its own λ, as in real
    traces — a low-rate destination genuinely meets fewer carriers,
    which is the paper's TE mechanism) and both directions exchange
    path counts. For each quadrant, messages are tracked from a random
    source of the right class to a random destination of the right
    class; reported are mean T1, mean TE (time from first arrival to
    the [n_explosion]-th cumulative path), and the delivery and
    explosion counts. *)
