(* Clean fan-out: the buffer the task reaches has declared
   per-domain ownership in lint.toml. *)
let go xs = Parallel.map_traced Journal.log xs
