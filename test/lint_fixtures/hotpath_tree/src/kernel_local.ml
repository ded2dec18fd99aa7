(* A named local function is no cheaper than an anonymous one: without
   flambda, [go] captures [a] and [len] and is built on every call. *)
let[@psn.hot] scan a len =
  let rec go i = if i >= len then false else a.(i) land 1 <> 0 || go (i + 1) in
  go 0

(* The same loop at top level allocates nothing: silent. *)
let[@psn.hot] rec scan_from a len i = if i >= len then false else a.(i) land 1 <> 0 || scan_from a len (i + 1)
