[@@@lint.allow "missing-mli"]

(* Results must not depend on when the process ran. *)
let now () = Unix.gettimeofday ()
let cpu () = Sys.time ()
let times () = Unix.times ()
