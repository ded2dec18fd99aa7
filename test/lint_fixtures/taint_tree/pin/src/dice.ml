(* One definition reads two ambient sources: a call to it is one
   finding per kind, in Rules.taint_kinds order. *)
let both () = (Random.int 6, Unix.gettimeofday ())
