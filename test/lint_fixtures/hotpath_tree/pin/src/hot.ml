(* Step.step reaches two allocating helpers; the witness is the first
   call edge in sorted order. *)
let[@psn.hot] drain x = Step.step x

(* More than 16 hops down to the allocation: the chain is cut with
   "...". *)
let[@psn.hot] deep x = Chain.f0 x
