(* Clean fan-out: the task only touches an atomic. *)
let go xs = Parallel.map_traced Owned.touch xs
