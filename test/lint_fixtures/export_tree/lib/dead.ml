(* Nothing outside lib/ calls this. *)
let unused () = Chain.helper ()

(* Kept on purpose, with the in-file reason the rule asks for: a
   reference implementation the test suite compares against. *)
let reference x = x [@@lint.allow "dead-export"]
