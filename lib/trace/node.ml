type id = int

type kind = Mobile | Stationary

let equal_kind a b =
  match (a, b) with Mobile, Mobile | Stationary, Stationary -> true | _, _ -> false

let pp ppf id = Format.fprintf ppf "n%d" id
