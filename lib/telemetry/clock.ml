(* The one module allowed to read the wall clock (see lint.toml): every
   other wall-clock read in the tree — telemetry timestamps, benchmark
   timing — must flow through [now_s], so the determinism
   contract's "results never depend on when the process ran" stays
   auditable as a one-line allowlist. *)

let now_s () = Unix.gettimeofday ()
