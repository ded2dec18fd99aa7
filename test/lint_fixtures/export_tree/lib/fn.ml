(* A functor: its body is reached only when some root applies it. *)
module Make (X : sig
  val base : int
end) =
struct
  let get () = X.base + Helper.offset
end
