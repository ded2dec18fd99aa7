(** Randomised flooding: copy across each contact opportunity with a
    fixed probability [p]. Interpolates between Direct (p = 0) and
    Epidemic (p = 1); used in ablations of how much replication path
    explosion actually requires. *)

val factory : ?p:float -> unit -> Psn_sim.Algorithm.factory
(** [p] defaults to 0.5. Raises [Invalid_argument] if [p] is outside
    [\[0, 1\]]. Each constructed run draws from its own stream seeded
    with 7. *)
