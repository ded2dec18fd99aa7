(* Reached only from Dead.unused, itself dead: also dead. *)
let helper () = 0
