(* Used only through a first-class module pack. *)
let describe () = "impl"
