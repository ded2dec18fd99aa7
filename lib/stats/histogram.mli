(** Fixed-width binned histograms.

    Used for Fig. 6 (path arrivals over time) and any density view. *)

type t
(** Immutable histogram. *)

val create : lo:float -> hi:float -> bins:int -> float Seq.t -> t
(** [create ~lo ~hi ~bins data] counts observations into [bins] equal
    bins covering [\[lo, hi)]. Observations outside the range are
    tallied separately as underflow/overflow. Requires [lo < hi] and
    [bins >= 1]. *)

val counts : t -> int array
(** Per-bin counts, length [bins]. *)

val bin_center : t -> int -> float
(** Midpoint of bin [i]. *)

val underflow : t -> int
(** Observations below [lo]. *)

val overflow : t -> int
(** Observations at or above [hi]. *)

val total : t -> int
(** All observations, including under/overflow. *)
