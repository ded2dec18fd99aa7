(** A single contact record.

    A contact is a maximal interval during which two devices could
    exchange data. As in the paper, contacts are symmetric: when A logs
    a contact with B we assume data can flow both ways, so records are
    normalised with [a < b]. *)

type t = private {
  a : Node.id;  (** Smaller endpoint. *)
  b : Node.id;  (** Larger endpoint; [a < b] always holds. *)
  t_start : float;  (** Contact start, seconds from trace origin. *)
  t_end : float;  (** Contact end; [t_start < t_end]. *)
}

val make : a:Node.id -> b:Node.id -> t_start:float -> t_end:float -> t
(** Normalising constructor: swaps endpoints if needed. Raises
    [Invalid_argument] if [a = b], either id is negative, times are not
    finite, or [t_end <= t_start]. *)

val of_fields : string -> string -> string -> string -> (t, string) result
(** [of_fields a b t_start t_end] reads one contact record from its four
    field strings: the only parser of contacts, shared by both trace
    formats, the serve protocol and serve snapshots. Both ids must be
    integers in [\[0, Node.id_bound)] and differ; both times must be
    finite numbers with [t_start < t_end]. [Error] names the first
    offence in that order; it never raises. *)

val duration : t -> float
(** [t_end -. t_start]. *)

val overlaps : t -> t0:float -> t1:float -> bool
(** Whether the contact interval intersects [\[t0, t1)]. *)

val compare_by_start : t -> t -> int
(** Chronological order by start time, tie-broken by end time then
    endpoints, so sorting is deterministic. *)

val pp : Format.formatter -> t -> unit
(** ["n3<->n17 [120.0, 310.5)"]. *)
