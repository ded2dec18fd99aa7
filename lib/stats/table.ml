type align = Left | Right

let pad align width cell =
  let gap = width - String.length cell in
  if gap <= 0 then cell
  else
    match align with
    | Left -> cell ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ cell

let render ?align ~header rows =
  let ncols = List.fold_left (fun acc row -> Int.max acc (List.length row)) (List.length header) rows in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let header = normalize header in
  let rows = List.map normalize rows in
  let aligns =
    match align with
    | None -> List.init ncols (fun _ -> Left)
    | Some a ->
      let len = List.length a in
      if len >= ncols then a else a @ List.init (ncols - len) (fun _ -> Left)
  in
  let widths = Array.make ncols 0 in
  let note row = List.iteri (fun i cell -> widths.(i) <- Int.max widths.(i) (String.length cell)) row in
  note header;
  List.iter note rows;
  let line row =
    List.mapi (fun i cell -> pad (List.nth aligns i) widths.(i) cell) row
    |> String.concat "  "
    (* Trailing spaces from padding the last column are just noise. *)
    |> fun s ->
    let len = ref (String.length s) in
    while !len > 0 && s.[!len - 1] = ' ' do
      decr len
    done;
    String.sub s 0 !len
  in
  let rule = Array.to_list widths |> List.map (fun w -> String.make w '-') |> String.concat "  " in
  String.concat "\n" (line header :: rule :: List.map line rows)
