(** Node identities.

    Nodes are dense integer ids [0 .. n-1], which lets every downstream
    structure (snapshots, DP tables, simulator state) be an array. The
    experimental deployments mixed devices carried by participants with
    devices fixed around the venue, so each node also carries a kind. *)

type id = int
(** Dense node index, [0 <= id < n]. *)

type kind =
  | Mobile  (** Carried by a conference participant. *)
  | Stationary  (** Fixed around the venue (20 of 98 in the datasets). *)

val equal_kind : kind -> kind -> bool

val pp : Format.formatter -> id -> unit
(** ["n<id>"], e.g. ["n42"]. *)
