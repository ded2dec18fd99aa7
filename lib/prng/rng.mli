(** High-level random variate generation.

    Thin deterministic layer over {!Xoshiro} providing the variates the
    trace generator, workload generator and Monte-Carlo model need.
    Every function takes the generator explicitly; nothing uses global
    state, so experiments are reproducible from their seeds. *)

type t
(** A random source. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] makes a fresh source. Default seed is [42L]. *)

val of_xoshiro : Xoshiro.t -> t
(** Wrap an existing generator. *)

val bits64 : t -> int64
(** 64 uniform pseudo-random bits. *)

val float : t -> float -> float
(** [float t bound] is uniform on [\[0, bound)]. [bound] must be finite
    and positive. *)

val unit_float : t -> float
(** Uniform on [\[0, 1)], with 53 bits of precision. *)

val int : t -> int -> int
(** [int t bound] is uniform on [\[0, bound)]. [bound] must be positive.
    Uses rejection sampling, so the result is exactly uniform. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Uniform on the inclusive range [\[lo, hi\]]. Requires [lo <= hi]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. [p] outside
    [\[0, 1\]] is clamped. *)

val exponential : t -> rate:float -> float
(** [exponential t ~rate] samples Exp(rate): mean [1 /. rate]. [rate]
    must be positive. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal variate by the Box-Muller transform (one value per call). *)

val pareto : t -> alpha:float -> x_min:float -> float
(** Pareto variate with tail exponent [alpha], minimum [x_min] — used to
    model heavy-tailed inter-contact times in trace-generator
    variants. *)

val uniform_in : t -> lo:float -> hi:float -> float
(** Uniform on [\[lo, hi)]. Requires [lo < hi]. *)

val choice_weighted : t -> weights:float array -> int
(** [choice_weighted t ~weights] returns index [i] with probability
    proportional to [weights.(i)]. Weights must be non-negative with a
    positive sum. Linear scan; fine for the array sizes used here. *)
