(* The functor uses what the structure argument defines: neither
   S.compare nor Order.compare is dead. *)
module S = Set.Make (struct
  type t = int

  let compare = Order.compare
end)
