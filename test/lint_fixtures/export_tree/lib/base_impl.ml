(* Re-exported by Reexport's [include]; callers name Reexport.shared. *)
let shared () = 0
