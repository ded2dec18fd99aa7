(** Deterministic log-bucketed histograms (HDR-style).

    Bucket boundaries are fixed by the binary floating-point format: a
    positive sample [v = m * 2^e] (with [m] in [[0.5,1)]) lands in one
    of 8 linear sub-buckets of its octave, giving at most ~12.5%
    relative quantile error over the range [2^-30 .. 2^34). Samples
    [<= 0] go to a dedicated zero bucket, larger samples to an overflow
    bucket, and non-finite samples are skipped (and counted).

    All merged state is integral — bucket counts and a sum quantized to
    Int64 millionths — so {!merge_into} is associative and commutative:
    folding forked per-domain histograms in {e any} order yields
    bit-identical state, the property that keeps digests
    schedule-independent under [--jobs]×[--chunk]. *)

type t

val create : unit -> t
val copy : t -> t

val add : t -> float -> unit
(** Record one sample. Non-finite samples are not bucketed or summed,
    only counted in {!skipped}. *)

val merge_into : into:t -> t -> unit
(** Fold [src] into [into] by bucket-wise addition. *)

val count : t -> int
(** Recorded (finite) samples. *)

val skipped : t -> int
(** Non-finite samples dropped by {!add}. *)

val sum : t -> float
(** Sum of samples, via the Int64 millionths accumulator — so equal
    merged bucket state implies an equal sum, bit for bit. *)

val min_value : t -> float
(** Exact smallest sample; [0.] when empty. *)

val max_value : t -> float
(** Exact largest sample; [0.] when empty. *)

val quantile : t -> float -> float
(** [quantile h q] for [q] in [[0,1]]: the upper boundary of the bucket
    holding the rank-⌈q·count⌉ sample (clamped to {!max_value}), [0.]
    when empty. A pure function of the integer bucket state. *)

type digest = {
  d_count : int;
  d_sum : float;
  d_min : float;
  d_max : float;
  d_p50 : float;
  d_p90 : float;
  d_p99 : float;
  d_p999 : float;
}

val digest : t -> digest

val equal : t -> t -> bool
(** Bit-exact state equality (bucket counts, quantized sum, extremes). *)

val cumulative : t -> (float * int) list
(** OpenMetrics-shaped cumulative [(le, count)] pairs over non-empty
    buckets, always ending with [(+inf, count h)]. *)

val encode : t -> string
(** One-line text codec (decimal integers + hex floats); round-trips
    bit-exactly through {!decode} for snapshot/resume. *)

val decode : string -> t option
