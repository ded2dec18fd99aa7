(* The root: every lib/ definition it reaches, by any of these forms,
   is live. *)
module Counter = Fn.Make (Arg)
module A = Aliased

let packed = (module Impl : Describe)

let hooks = { Hooks.tick = Handlers.on_tick }

let run () = Counter.get () + A.value + Reexport.shared ()
