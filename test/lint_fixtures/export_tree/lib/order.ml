(* Used only inside a structure passed to a functor. *)
let compare = Int.compare
