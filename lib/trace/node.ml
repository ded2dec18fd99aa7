type id = int

type kind = Mobile | Stationary

let id_bits = 28
let id_bound = (1 lsl id_bits) - 1

let equal_kind a b =
  match (a, b) with Mobile, Mobile | Stationary, Stationary -> true | _, _ -> false

let pp ppf id = Format.fprintf ppf "n%d" id
