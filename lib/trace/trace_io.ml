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

type header = { mutable nodes : int option; mutable horizon : float option }

(* Duplicates are keyed on the endpoint-normalised quadruple so that
   "1,2,..." and "2,1,..." count as the same contact. *)
let contact_key a b s e = ((Int.min a b, Int.max a b), (s, e))

let parse_line ~lineno header contacts stationary seen line =
  let fail fmt = Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" lineno s)) fmt in
  let line = String.trim line in
  if String.equal line "" then Ok ()
  else if String.length line > 0 && line.[0] = '#' then begin
    match String.split_on_char ' ' line |> List.filter (fun s -> not (String.equal s "")) with
    | [ "#"; "psn-trace"; "v1" ] -> Ok ()
    | [ "#"; "nodes"; n ] -> (
      (* A population no array can hold is as bad as a negative one. *)
      match int_of_string_opt n with
      | Some n when n > 0 && n <= Sys.max_array_length ->
        header.nodes <- Some n;
        Ok ()
      | _ -> fail "bad node count %S" n)
    | [ "#"; "horizon"; h ] -> (
      match float_of_string_opt h with
      | Some h when Float.is_finite h && h > 0. ->
        header.horizon <- Some h;
        Ok ()
      | _ -> fail "bad horizon %S (must be finite and positive)" h)
    | [ "#"; "kind"; id; "stationary" ] -> (
      match int_of_string_opt id with
      | Some id when id >= 0 ->
        stationary := (id, lineno) :: !stationary;
        Ok ()
      | _ -> fail "bad kind line")
    | _ -> Ok ()  (* unknown comments are tolerated *)
  end
  else begin
    match String.split_on_char ',' line with
    | [ a; b; s; e ] -> (
      match (int_of_string_opt a, int_of_string_opt b, float_of_string_opt s, float_of_string_opt e)
      with
      | Some a, Some b, Some s, Some e ->
        if not (Float.is_finite s && Float.is_finite e) then
          fail "non-finite timestamp in contact %d,%d" a b
        else if s >= e then fail "empty or inverted interval [%g, %g)" s e
        else begin
          let key = contact_key a b s e in
          match Hashtbl.find_opt seen key with
          | Some first -> fail "duplicate contact %s (first seen at line %d)" line first
          | None -> (
            Hashtbl.add seen key lineno;
            match Contact.make ~a ~b ~t_start:s ~t_end:e with
            | c ->
              contacts := (c, lineno) :: !contacts;
              Ok ()
            | exception Invalid_argument msg -> fail "invalid contact: %s" msg)
        end
      | _ -> fail "unparseable contact fields")
    | _ -> fail "expected a,b,t_start,t_end"
  end

let of_string text =
  let header = { nodes = None; horizon = None } in
  let contacts = ref [] and stationary = ref [] in
  let seen = Hashtbl.create 256 in
  let lines = String.split_on_char '\n' text in
  let rec go lineno = function
    | [] -> Ok ()
    | line :: rest -> (
      match parse_line ~lineno header contacts stationary seen line with
      | Ok () -> go (lineno + 1) rest
      | Error _ as e -> e)
  in
  match go 1 lines with
  | Error _ as e -> e
  | Ok () -> (
    match (header.nodes, header.horizon) with
    | None, _ -> Error "missing '# nodes' header"
    | _, None -> Error "missing '# horizon' header"
    | Some n, Some h -> (
      (* Range checks report the first offending line, in file order,
         as an [Error] — the same line-numbered one-line-to-stderr
         shape as every other parse failure; no exceptions involved. *)
      let check_ranges () =
        match
          List.find_map
            (fun (id, lineno) ->
              if id >= n then
                Some
                  (Printf.sprintf "line %d: stationary node %d outside population of %d" lineno
                     id n)
              else None)
            (List.rev !stationary)
        with
        | Some _ as err -> err
        | None ->
          List.find_map
            (fun ((c : Contact.t), lineno) ->
              (* [Contact.make] orders endpoints, so [b] is the larger. *)
              if c.Contact.b >= n then
                Some
                  (Printf.sprintf "line %d: node id %d exceeds population of %d (from '# nodes')"
                     lineno c.Contact.b n)
              else None)
            (List.rev !contacts)
      in
      match check_ranges () with
      | Some msg -> Error msg
      | None -> (
        let kinds = Array.make n Node.Mobile in
        List.iter (fun (id, _) -> kinds.(id) <- Node.Stationary) !stationary;
        match Trace.create ~n_nodes:n ~horizon:h ~kinds (List.rev_map fst !contacts) with
        | exception Invalid_argument msg -> Error msg
        | trace -> (
          match Trace.validate trace with Ok () -> Ok trace | Error msg -> Error msg))))

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
    let read () =
      let len = in_channel_length ic in
      really_input_string ic len
    in
    let text = Fun.protect ~finally:(fun () -> close_in ic) read in
    of_string text

let of_whitespace ?n_nodes text =
  let lines = String.split_on_char '\n' text in
  let seen = Hashtbl.create 256 in
  let parse_line (lineno, acc) line =
    let fail fmt =
      Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" lineno s)) fmt
    in
    let line = String.trim line in
    if String.equal line "" || line.[0] = '#' then Ok (lineno + 1, acc)
    else begin
      match
        String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
        |> List.filter (fun s -> not (String.equal s ""))
      with
      | a :: b :: s :: e :: _ -> (
        match
          (int_of_string_opt a, int_of_string_opt b, float_of_string_opt s, float_of_string_opt e)
        with
        | Some a, Some b, Some s, Some e ->
          if a < 0 || b < 0 then fail "negative node id in contact %d %d" a b
          else if a = b then fail "self-contact at node %d" a
          else if not (Float.is_finite s && Float.is_finite e) then
            fail "non-finite timestamp in contact %d %d" a b
          else if s >= e then fail "empty or inverted interval [%g, %g)" s e
          else begin
            let key = contact_key a b s e in
            match Hashtbl.find_opt seen key with
            | Some first -> fail "duplicate contact %S (first seen at line %d)" line first
            | None ->
              Hashtbl.add seen key lineno;
              Ok (lineno + 1, (a, b, s, e, lineno) :: acc)
          end
        | _ -> fail "unparseable contact %S" line)
      | _ -> fail "expected 'id1 id2 t_start t_end'"
    end
  in
  let rec fold state = function
    | [] -> Ok state
    | line :: rest -> (
      match parse_line state line with Ok state -> fold state rest | Error _ as err -> err)
  in
  match fold (1, []) lines with
  | Error msg -> Error msg
  | Ok (_, []) -> Error "no contacts found"
  | Ok (_, raw) -> (
    (* Shift 1-based ids down when id 0 never appears. *)
    let min_id =
      List.fold_left (fun acc (a, b, _, _, _) -> Int.min acc (Int.min a b)) max_int raw
    in
    let shift = if min_id >= 1 then min_id else 0 in
    let t0 = List.fold_left (fun acc (_, _, s, _, _) -> Float.min acc s) Float.infinity raw in
    let raw = List.map (fun (a, b, s, e, ln) -> (a - shift, b - shift, s -. t0, e -. t0, ln)) raw in
    let max_id =
      List.fold_left (fun acc (a, b, _, _, _) -> Int.max acc (Int.max a b)) 0 raw
    in
    let horizon = List.fold_left (fun acc (_, _, _, e, _) -> Float.max acc e) 0. raw in
    let range_error =
      match n_nodes with
      | Some n when max_id >= n ->
        List.find_map
          (fun (a, b, _, _, ln) ->
            if Int.max a b >= n then
              Some
                (Printf.sprintf
                   "line %d: node id %d exceeds the requested population of %d%s" ln
                   (Int.max a b + shift) n
                   (if shift > 0 then Printf.sprintf " (ids shifted down by %d)" shift else ""))
            else None)
          (List.rev raw)
      | _ -> None
    in
    match range_error with
    | Some msg -> Error msg
    | None -> (
      let n = match n_nodes with Some n -> n | None -> max_id + 1 in
      match
        List.map (fun (a, b, t_start, t_end, _) -> Contact.make ~a ~b ~t_start ~t_end) raw
      with
      | exception Invalid_argument msg -> Error msg
      | contacts -> (
        match Trace.create ~n_nodes:n ~horizon contacts with
        | exception Invalid_argument msg -> Error msg
        | trace -> Ok trace)))

let load_whitespace ?n_nodes path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let read () = really_input_string ic (in_channel_length ic) in
    let text = Fun.protect ~finally:(fun () -> close_in ic) read in
    of_whitespace ?n_nodes text
