module Contact = Psn_trace.Contact

type query =
  | Inject of { src : Psn_trace.Node.id; dst : Psn_trace.Node.id; t : float option }
  | Paths of { src : Psn_trace.Node.id; dst : Psn_trace.Node.id; t : float option }
  | Delivery of { src : Psn_trace.Node.id; dst : Psn_trace.Node.id; t : float option }
  | Route
  | Stats
  | Metrics
  | Snapshot
  | Quit

type line =
  | Blank
  | Contact of Psn_trace.Contact.t
  | Advance of float
  | Query of query

let int_field what s =
  match int_of_string_opt s with
  | Some v when v >= 0 -> Ok v
  | Some v -> Error (Printf.sprintf "%s must be non-negative (got %d)" what v)
  | None -> Error (Printf.sprintf "%s is not an integer: %S" what s)

let float_field what s =
  match float_of_string_opt s with
  | Some v when Float.is_finite v -> Ok v
  | Some _ -> Error (Printf.sprintf "%s must be finite" what)
  | None -> Error (Printf.sprintf "%s is not a number: %S" what s)

(* A native Trace_io contact line, read by the same field parser. *)
let parse_contact line =
  match String.split_on_char ',' line with
  | [ a; b; s; e ] -> Result.map (fun c -> Contact c) (Contact.of_fields a b s e)
  | _ -> Error (Printf.sprintf "malformed contact line (want a,b,t_start,t_end): %S" line)

let endpoints_query what make src dst t_opt =
  match (int_field (what ^ " source") src, int_field (what ^ " destination") dst) with
  | Error reason, _ | _, Error reason -> Error reason
  | Ok src, Ok dst -> (
    match t_opt with
    | None -> Ok (Query (make ~src ~dst None))
    | Some s -> (
      match float_field (what ^ " time") s with
      | Error _ as e -> e
      | Ok t -> Ok (Query (make ~src ~dst (Some t)))))

let inject ~src ~dst t = Inject { src; dst; t }
let paths ~src ~dst t = Paths { src; dst; t }
let delivery ~src ~dst t = Delivery { src; dst; t }

let parse raw =
  let line = String.trim raw in
  if String.length line = 0 || Char.equal line.[0] '#' then Ok Blank
  else if String.contains line ',' then parse_contact line
  else begin
    let words = String.split_on_char ' ' line |> List.filter (fun s -> String.length s > 0) in
    match words with
    | [ "advance"; t ] -> (
      match float_field "advance time" t with Error _ as e -> e | Ok t -> Ok (Advance t))
    | [ "inject"; src; dst ] -> endpoints_query "inject" inject src dst None
    | [ "inject"; src; dst; t ] -> endpoints_query "inject" inject src dst (Some t)
    | [ "paths"; src; dst ] -> endpoints_query "paths" paths src dst None
    | [ "paths"; src; dst; t ] -> endpoints_query "paths" paths src dst (Some t)
    | [ "delivery"; src; dst ] -> endpoints_query "delivery" delivery src dst None
    | [ "delivery"; src; dst; t ] -> endpoints_query "delivery" delivery src dst (Some t)
    | [ "route" ] -> Ok (Query Route)
    | [ "stats" ] -> Ok (Query Stats)
    | [ "metrics" ] -> Ok (Query Metrics)
    | [ "snapshot" ] -> Ok (Query Snapshot)
    | [ "quit" ] -> Ok (Query Quit)
    (* Known verb, wrong shape: answer with the expected usage rather
       than a misleading "unknown request". *)
    | "advance" :: _ -> Error "advance expects one time: advance T"
    | "inject" :: _ -> Error "inject expects: inject SRC DST [T]"
    | "paths" :: _ -> Error "paths expects: paths SRC DST [T]"
    | "delivery" :: _ -> Error "delivery expects: delivery SRC DST [T]"
    | (("route" | "stats" | "metrics" | "snapshot" | "quit") as verb) :: _ ->
      Error (Printf.sprintf "%s takes no arguments" verb)
    | verb :: _ -> Error (Printf.sprintf "unknown request %S" verb)
    | [] -> Ok Blank
  end
