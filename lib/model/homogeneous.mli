(** The homogeneous path-explosion model of §5.1.

    N nodes; each node's contact opportunities form a Poisson process of
    intensity λ, the contacted peer chosen uniformly. [S_n(t)] counts
    the paths from a fixed source that have reached node [n] by time
    [t]; on a contact from [n] to [m], [S_m += S_n]. The paper analyses
    the population densities [u_k(t)] (fraction of nodes with exactly
    [k] paths), whose large-N Kurtz limit obeys

    {v du_k/dt = λ ( Σ_{i=0..k} u_i u_{k-i}  -  u_k ) v}

    with generating function [φ_x(t) = Σ_k x^k u_k(t)] solving
    [dφ/dt = λ (φ² - φ)] in closed form (eqs. 2-3), giving the paper's
    headline results: the mean number of paths per node grows as
    [E\[S(0)\] e^{λt}] (eq. 4) and the variance as
    [V\[S(0)\] e^{λt} + E\[S(0)\](e^{2λt} - e^{λt})].

    This module provides both the closed forms and a truncated numeric
    solution of the ODE so each can validate the other. *)

type params = { n : int;  (** Population size N >= 2. *) lambda : float  (** Per-node contact intensity λ > 0. *) }

val check : params -> unit
(** Raises [Invalid_argument] on bad parameters. *)

val initial_density : params -> k_max:int -> float array
(** The paper's initial condition as a density vector of length
    [k_max + 1]: a single source holding one path, i.e.
    [u_1(0) = 1/N], [u_0(0) = 1 - 1/N]. *)

val density_at : params -> k_max:int -> t:float -> ?steps:int -> unit -> float array
(** Numeric solution [u(t)] of the ODE truncated at [k_max] (mass
    flowing beyond [k_max] leaks out, so [Σ u] drops below 1 once the
    truncation binds).
    [steps] defaults to 1000 RK4 steps. *)

val mean_of_density : float array -> float
(** [Σ_k k u_k] — mean paths per node under a density vector. *)

val generating_function : params -> x:float -> t:float -> float
(** Closed-form [φ_x(t)] from eqs. (2)-(3). For [x > 1] the value blows
    up at {!blowup_time}; past it the formula's sign flips, and this
    function returns [infinity] from the blow-up point on. *)

val mean_paths : params -> t:float -> float
(** Eq. (4): [E\[S(t)\] = (1/N) e^{λt}]. *)

val second_moment : params -> t:float -> float
(** [E\[S(t)²\]] from the second derivative of [φ]:
    [(E\[S(0)²\] + 2 (e^{λt} - 1) E\[S(0)\]²) e^{λt}]. *)

val variance : params -> t:float -> float
(** [V\[S(t)\] = V\[S(0)\] e^{λt} + E\[S(0)\]² (e^{2λt} - e^{λt})].
    Note: the paper prints [E\[S(0)\]] (unsquared) in the last term,
    which is inconsistent with its own second-moment formula — expanding
    [E\[S²\] - E\[S\]²] from eqs. (2)-(4) yields the squared
    coefficient implemented here (the two agree only when
    [E\[S(0)\] = 1]). *)

val blowup_time : params -> x:float -> float option
(** [T_C(x) = (1/λ) ln (φ_x(0) / (φ_x(0) - 1))] — the finite time at
    which the series [φ_x] diverges, witnessing the loss of the
    light-tail property. [None] for [x <= 1] (no blow-up). *)

val frac_reached : params -> t:float -> float
(** Fraction of nodes holding at least one path at time [t]:
    [1 - u_0(t) = 1 - φ_0(t)], in closed form from eq. (2). Grows
    logistically: negligible until around {!first_path_time}, then
    saturating — the epidemic S-curve. *)

val first_path_time : params -> float
(** [H = ln N / λ]: the time scale at which the mean path count per
    node reaches one — the paper's expected time for the first path. *)
