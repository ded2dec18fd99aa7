(** Discretisation of continuous time into the paper's Δ grid.

    Following §4.1, time is cut into steps [c = 1, 2, …, ceil(tmax/Δ)];
    step [c] stands for the interval [\[cΔ - Δ, cΔ)] and is labelled by
    its right edge [T = cΔ]. The paper uses Δ = 10 s throughout. *)

type t

val create : ?delta:float -> horizon:float -> unit -> t
(** [delta] defaults to 10 s. Raises [Invalid_argument] unless
    [0 < delta] and [0 < horizon]. *)

val delta : t -> float

val n_steps : t -> int
(** [ceil (horizon / delta)]. Steps are numbered 1 .. n_steps. *)

val step_of_time : t -> float -> int
(** The step whose interval contains the instant. Raises
    [Invalid_argument] outside [\[0, horizon)]. *)

val time_of_step : t -> int -> float
(** Right edge [cΔ] of the step — the timestamp the paper assigns to
    events in the step. Raises [Invalid_argument] outside
    [\[1, n_steps\]]. *)

val steps_overlapping : t -> t_start:float -> t_end:float -> int * int
(** Inclusive range of steps whose intervals intersect
    [\[t_start, t_end)], clamped to the grid. Requires
    [t_start < t_end]. *)
