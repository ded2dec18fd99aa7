(* Known single-domain call site (the jobs=1 CLI path): waived with
   a justification, as the rule's contract requires. *)
let go xs = (Parallel.map_traced Work.task xs) [@lint.allow "domain-race"]
