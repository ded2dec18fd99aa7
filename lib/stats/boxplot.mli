(** Box-and-whisker summaries (Fig. 15).

    Tukey-style: box at the quartiles, whiskers at the most extreme
    observations within 1.5 IQR of the box, everything beyond flagged as
    outliers. *)

type t = {
  q1 : float;  (** 25th percentile. *)
  median : float;
  q3 : float;  (** 75th percentile. *)
  whisker_lo : float;  (** Lowest observation >= q1 - 1.5 IQR. *)
  whisker_hi : float;  (** Highest observation <= q3 + 1.5 IQR. *)
  outliers : float array;  (** Sorted observations beyond the whiskers. *)
  count : int;
}

val of_samples : float array -> t
(** Raises [Invalid_argument] on an empty sample. *)

val iqr : t -> float
(** Interquartile range [q3 - q1]. *)
