(* Referenced only from inside the functor body of Fn.Make. *)
let offset = 1
