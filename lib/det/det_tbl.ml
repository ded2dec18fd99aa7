(* The one blessed gateway from hash tables to ordered data. Everything
   here funnels through [bindings], which snapshots the table and sorts
   by key, so callers can never observe hash order. This is the single
   justified hash-order-iteration suppression in lib/ — see DESIGN.md,
   "Static enforcement of the determinism contract". *)
[@@@lint.allow "hash-order-iteration"]

(* [Hashtbl.fold] visits a bucket's bindings most-recent-first; the
   cons accumulator reverses that, so a [List.rev] restores it before
   the stable sort — duplicate keys then enumerate most-recent-first,
   agreeing with [Hashtbl.find_all]. *)
let bindings ~cmp tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.rev
  |> List.stable_sort (fun (a, _) (b, _) -> cmp a b)

let iter ~cmp f tbl = List.iter (fun (k, v) -> f k v) (bindings ~cmp tbl)

let fold ~cmp f tbl init = List.fold_left (fun acc (k, v) -> f k v acc) init (bindings ~cmp tbl)
