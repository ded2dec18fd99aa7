(** Message workload generation (§6.1).

    The paper generates messages "according to a Poisson process with
    rate one message per 4 seconds", with source and destination chosen
    uniformly at random, during the first two hours of each three-hour
    window (the last hour is margin so every message gets at least an
    hour to be delivered). *)

type spec = {
  rate : float;  (** Messages per second (paper: 0.25). *)
  t_start : float;  (** Generation window start. *)
  t_end : float;  (** Generation window end (paper: 7200 of 10800). *)
  n_nodes : int;  (** Population to draw endpoints from. *)
}

val paper_spec : n_nodes:int -> spec
(** Rate 1/4 s over [\[0, 7200)], the first two hours of a three-hour
    trace. For another horizon, use [Experiments.paper_workload]. *)

val validate : spec -> (unit, string) result

val generate : ?rng:Psn_prng.Rng.t -> spec -> Message.t list
(** Chronological messages. Raises [Invalid_argument] if the spec fails
    {!validate}. Default rng seed 42. *)

val fixed_count : ?rng:Psn_prng.Rng.t -> spec -> count:int -> Message.t list
(** Exactly [count] messages with uniform creation times over the
    window — used when experiments need a deterministic message budget
    rather than a Poisson draw. *)
