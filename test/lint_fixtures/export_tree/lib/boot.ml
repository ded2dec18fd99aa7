(* Module initialisers run whenever the module is linked: roots. *)
let () = Setup.init ()
