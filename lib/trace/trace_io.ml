let to_string trace =
  let buf = Buffer.create (64 * Trace.n_contacts trace) in
  Buffer.add_string buf "# psn-trace v1\n";
  Buffer.add_string buf (Printf.sprintf "# nodes %d\n" (Trace.n_nodes trace));
  Buffer.add_string buf (Printf.sprintf "# horizon %.6g\n" (Trace.horizon trace));
  Array.iteri
    (fun i kind ->
      if Node.equal_kind kind Node.Stationary then
        Buffer.add_string buf (Printf.sprintf "# kind %d stationary\n" i))
    (Trace.kinds trace);
  Trace.iter_contacts trace (fun (c : Contact.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%.6g,%.6g\n" c.Contact.a c.Contact.b c.Contact.t_start
           c.Contact.t_end));
  Buffer.contents buf

type format = Native | Whitespace

let fields format line =
  match format with
  | Native -> String.split_on_char ',' line
  | Whitespace ->
    String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
    |> List.filter (fun s -> not (String.equal s ""))

(* The first line that is neither blank nor a comment decides: a comma
   in its first space- or tab-separated field means native, anything
   else whitespace, and a text with no contact line is native (so it
   fails on its missing header). A native line's first field holds
   "a,b"; a whitespace line's holds an id, which has no comma (any
   comma is in the ignored columns). So no text either format accepts
   is read in the other. *)
let detect lines =
  let contact_line l =
    let l = String.trim l in
    if String.equal l "" || l.[0] = '#' then None else Some l
  in
  match Option.map (fields Whitespace) (List.find_map contact_line lines) with
  | Some (first :: _) when not (String.contains first ',') -> Whitespace
  | _ -> Native

type header = {
  mutable nodes : int option;
  mutable horizon : float option;
  mutable stationary : (Node.id * int) list;  (* with line numbers, last line first *)
}

(* Native header comments; any other comment is tolerated. *)
let header_line header ~lineno line =
  match String.split_on_char ' ' line |> List.filter (fun s -> not (String.equal s "")) with
  | [ "#"; "psn-trace"; "v1" ] -> Ok ()
  | [ "#"; "nodes"; n ] -> (
    (* Bounded before anything is allocated: the engine cannot run a
       larger population. *)
    match int_of_string_opt n with
    | Some n when n > 0 && n <= Node.id_bound ->
      header.nodes <- Some n;
      Ok ()
    | _ -> Error (Printf.sprintf "bad node count %S (must be 1 to %d)" n Node.id_bound))
  | [ "#"; "horizon"; h ] -> (
    match float_of_string_opt h with
    | Some h when Float.is_finite h && h > 0. ->
      header.horizon <- Some h;
      Ok ()
    | _ -> Error (Printf.sprintf "bad horizon %S (must be finite and positive)" h))
  | [ "#"; "kind"; id; "stationary" ] -> (
    match int_of_string_opt id with
    | Some id when id >= 0 ->
      header.stationary <- (id, lineno) :: header.stationary;
      Ok ()
    | _ -> Error "bad kind line")
  | _ -> Ok ()

(* Both formats: each contact line goes through [Contact.of_fields] and
   one duplicate table. Contacts are endpoint-normalised, so "1,2,..."
   and "2,1,..." are the same key. Returns the contacts in file order
   with their line numbers. *)
let read_contacts format header lines =
  let seen = Hashtbl.create 256 in
  let contact ~lineno line =
    match (format, fields format line) with
    | Native, [ a; b; s; e ] | Whitespace, a :: b :: s :: e :: _ -> (
      match Contact.of_fields a b s e with
      | Error _ as err -> err
      | Ok c -> (
        match Hashtbl.find_opt seen c with
        | Some first ->
          Error (Printf.sprintf "duplicate contact %S (first seen at line %d)" line first)
        | None ->
          Hashtbl.add seen c lineno;
          Ok c))
    | Native, _ -> Error "expected a,b,t_start,t_end"
    | Whitespace, _ -> Error "expected 'id1 id2 t_start t_end'"
  in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let line = String.trim line in
      let step =
        if String.equal line "" then Ok acc
        else if line.[0] = '#' then
          match format with
          | Native -> Result.map (fun () -> acc) (header_line header ~lineno line)
          | Whitespace -> Ok acc
        else Result.map (fun c -> (c, lineno) :: acc) (contact ~lineno line)
      in
      match step with
      | Ok acc -> go (lineno + 1) acc rest
      | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 [] lines

(* Ids are checked against the '# nodes' population once it is known;
   the first offending line, in file order, is reported. *)
let native_trace header contacts =
  match (header.nodes, header.horizon) with
  | None, _ -> Error "missing '# nodes' header"
  | _, None -> Error "missing '# horizon' header"
  | Some n, Some h -> (
    let stationary = List.rev header.stationary in
    let out_of_range =
      match List.find_opt (fun (id, _) -> id >= n) stationary with
      | Some (id, lineno) ->
        Some (Printf.sprintf "line %d: stationary node %d outside population of %d" lineno id n)
      | None ->
        List.find_map
          (fun ((c : Contact.t), lineno) ->
            (* endpoints are ordered, so [b] is the larger *)
            if c.Contact.b >= n then
              Some
                (Printf.sprintf "line %d: node id %d exceeds population of %d (from '# nodes')"
                   lineno c.Contact.b n)
            else None)
          contacts
    in
    match out_of_range with
    | Some msg -> Error msg
    | None -> (
      let kinds = Array.make n Node.Mobile in
      List.iter (fun (id, _) -> kinds.(id) <- Node.Stationary) stationary;
      match Trace.create ~n_nodes:n ~horizon:h ~kinds (List.map fst contacts) with
      | exception Invalid_argument msg -> Error msg
      | trace -> Result.map (fun () -> trace) (Trace.validate trace)))

(* Ids shift down so the smallest is 0 and times so the earliest start
   is 0; the population is the largest id + 1 and the horizon the
   latest end. *)
let whitespace_trace contacts =
  let contacts = List.map fst contacts in
  let fold f init = List.fold_left f init contacts in
  let shift = fold (fun acc (c : Contact.t) -> Int.min acc c.Contact.a) max_int in
  let t0 = fold (fun acc (c : Contact.t) -> Float.min acc c.Contact.t_start) Float.infinity in
  match
    List.map
      (fun (c : Contact.t) ->
        Contact.make ~a:(c.Contact.a - shift) ~b:(c.Contact.b - shift)
          ~t_start:(c.Contact.t_start -. t0) ~t_end:(c.Contact.t_end -. t0))
      contacts
  with
  | exception Invalid_argument msg -> Error msg
  | rebased -> (
    let max_id = List.fold_left (fun acc (c : Contact.t) -> Int.max acc c.Contact.b) 0 rebased in
    let horizon =
      List.fold_left (fun acc (c : Contact.t) -> Float.max acc c.Contact.t_end) 0. rebased
    in
    match Trace.create ~n_nodes:(max_id + 1) ~horizon rebased with
    | exception Invalid_argument msg -> Error msg
    | trace -> Ok trace)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let format = detect lines in
  let header = { nodes = None; horizon = None; stationary = [] } in
  match read_contacts format header lines with
  | Error _ as err -> err
  | Ok contacts -> (
    match format with
    | Native -> native_trace header contacts
    | Whitespace -> whitespace_trace contacts)

let save trace ~path =
  (* Write-to-temp then rename: a crash mid-write can leave a stray
     [.tmp] but never a truncated trace under the requested name. *)
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string trace));
  Sys.rename tmp path

let load ~path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let read () = really_input_string ic (in_channel_length ic) in
    of_string (Fun.protect ~finally:(fun () -> close_in ic) read)
