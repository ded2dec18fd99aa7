(* One fan-out site whose task reaches both of Pool's mutables and
   whose env reaches the table again: one finding per mutable, in
   node-id order. *)
let go xs = Parallel.map_env ~env:Pool.scratch Pool.note xs
