(* Used only as a functor argument: Fn.Make reads [base] through its
   parameter, which the resolver cannot follow. *)
let base = 41
