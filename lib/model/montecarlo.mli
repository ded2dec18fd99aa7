(** Monte-Carlo simulation of the §5.1 stochastic model.

    Direct event-driven simulation of the Markov jump process whose
    Kurtz limit is the ODE of {!Homogeneous}: N nodes, per-node Poisson
    contact opportunities of intensity λ, uniformly chosen peer, and the
    transition [S_peer += S_node]. Used to validate the closed forms at
    finite N. *)

type sample = {
  time : float;
  mean : float;  (** Mean paths per node at [time]. *)
  second_moment : float;
      (** Population mean of S² — the quantity whose expectation the
          closed form of {!Homogeneous.second_moment} gives. (The
          within-realisation variance is much smaller than the model
          variance, because most of E\[S²\] comes from realisation-to-
          realisation growth differences.) *)
  variance : float;  (** Within-realisation population variance. *)
  frac_reached : float;  (** Fraction of nodes with at least one path. *)
}

val run :
  Homogeneous.params ->
  rng:Psn_prng.Rng.t ->
  sample_times:float list ->
  sample list
(** Simulate one realisation from the single-source initial condition
    and record the population statistics at each requested time
    (ascending order enforced internally). Path counts are tracked in
    floating point: they grow like e^{λt}, which overflows 64-bit
    integers within a few multiples of the first-path time H. *)

val average_runs :
  Homogeneous.params ->
  rng:Psn_prng.Rng.t ->
  runs:int ->
  sample_times:float list ->
  sample list
(** Average {!run} over several independent realisations (sample
    fields averaged pointwise). Polls {!Psn_robust.Interrupt.check}
    before each realisation, so a signal stops a long average within
    one run. *)
