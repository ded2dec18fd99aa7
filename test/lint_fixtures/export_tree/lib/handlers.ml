(* Used only as a record field initialiser. *)
let on_tick () = ()
