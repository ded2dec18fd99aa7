type t = { id : int; src : Psn_trace.Node.id; dst : Psn_trace.Node.id; t_create : float }

let make ~id ~src ~dst ~t_create =
  if src = dst then invalid_arg "Message.make: src = dst";
  if id < 0 || src < 0 || dst < 0 then invalid_arg "Message.make: negative id";
  if not (Float.is_finite t_create && t_create >= 0.) then
    invalid_arg "Message.make: bad creation time";
  { id; src; dst; t_create }
