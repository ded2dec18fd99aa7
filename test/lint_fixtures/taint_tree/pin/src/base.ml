(* The one source of a diamond: Fork reaches it through Left and
   Right. *)
let tick () = Unix.time ()
