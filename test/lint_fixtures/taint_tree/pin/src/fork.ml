(* Neither callee is tainted when the first edge sweep reaches this
   file; the second sweep meets Right.r first in sorted edge order,
   so Right is the witness Top's chain goes through. *)
let both () = Right.r () +. Left.l ()
