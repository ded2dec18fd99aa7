type t = { a : Node.id; b : Node.id; t_start : float; t_end : float }

let make ~a ~b ~t_start ~t_end =
  if a = b then invalid_arg "Contact.make: self-contact";
  if a < 0 || b < 0 then invalid_arg "Contact.make: negative node id";
  if not (Float.is_finite t_start && Float.is_finite t_end) then
    invalid_arg "Contact.make: non-finite time";
  if not (t_start < t_end) then invalid_arg "Contact.make: empty or inverted interval";
  let a, b = if a < b then (a, b) else (b, a) in
  { a; b; t_start; t_end }

let of_fields a b s e =
  let ( let* ) = Result.bind in
  let id field =
    match int_of_string_opt field with
    | None -> Error (Printf.sprintf "node id is not an integer: %S" field)
    | Some v when v < 0 -> Error (Printf.sprintf "negative node id %d" v)
    | Some v when v >= Node.id_bound ->
      Error (Printf.sprintf "node id %d out of range (ids must be below %d)" v Node.id_bound)
    | Some v -> Ok v
  in
  let time what field =
    match float_of_string_opt field with
    | None -> Error (Printf.sprintf "contact %s is not a number: %S" what field)
    | Some v when not (Float.is_finite v) ->
      Error (Printf.sprintf "non-finite contact %s %S" what field)
    | Some v -> Ok v
  in
  let* a = id a in
  let* b = id b in
  let* t_start = time "start" s in
  let* t_end = time "end" e in
  if a = b then Error (Printf.sprintf "self-contact at node %d" a)
  else if not (t_start < t_end) then
    Error (Printf.sprintf "empty or inverted interval [%g, %g)" t_start t_end)
  else Ok (make ~a ~b ~t_start ~t_end)

let duration c = c.t_end -. c.t_start
let overlaps c ~t0 ~t1 = c.t_start < t1 && c.t_end > t0

let compare_by_start x y =
  let c = Float.compare x.t_start y.t_start in
  if c <> 0 then c
  else
    let c = Float.compare x.t_end y.t_end in
    if c <> 0 then c
    else
      let c = Int.compare x.a y.a in
      if c <> 0 then c else Int.compare x.b y.b

let pp ppf c = Format.fprintf ppf "%a<->%a [%.1f, %.1f)" Node.pp c.a Node.pp c.b c.t_start c.t_end
