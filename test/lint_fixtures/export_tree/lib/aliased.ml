(* Reached only through a module alias in the root. *)
let value = 7
