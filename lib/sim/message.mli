(** Messages: the unit of traffic in forwarding experiments. *)

type t = {
  id : int;  (** Dense index, unique within a workload. *)
  src : Psn_trace.Node.id;
  dst : Psn_trace.Node.id;
  t_create : float;  (** Creation instant, within the trace window. *)
}

val make : id:int -> src:Psn_trace.Node.id -> dst:Psn_trace.Node.id -> t_create:float -> t
(** Raises [Invalid_argument] if [src = dst], an id is negative, or the
    creation time is negative or not finite. *)
