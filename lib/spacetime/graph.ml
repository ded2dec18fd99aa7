type vertex = { node : Psn_trace.Node.id; step : int }

type edge = Contact of vertex * vertex | Wait of vertex * vertex

type t = { snap : Snapshot.t }

let of_trace ?delta trace = { snap = Snapshot.of_trace ?delta trace }

(* The formal §4.1 graph is a reference model: tests pin its vertex,
   edge and successor structure over the snapshot the enumerator uses. *)
let[@lint.allow "dead-export"] n_vertices t =
  Snapshot.n_nodes t.snap * Snapshot.n_steps t.snap

let[@lint.allow "dead-export"] weight = function Contact _ -> 0 | Wait _ -> 1

let[@lint.allow "dead-export"] successors t v =
  let contact_edges =
    Snapshot.neighbours t.snap ~step:v.step v.node
    |> List.map (fun peer -> Contact (v, { node = peer; step = v.step }))
  in
  if v.step < Snapshot.n_steps t.snap then
    contact_edges @ [ Wait (v, { node = v.node; step = v.step + 1 }) ]
  else contact_edges

let[@lint.allow "dead-export"] edge_count t =
  let nodes = Snapshot.n_nodes t.snap and steps = Snapshot.n_steps t.snap in
  let contact_dirs =
    List.fold_left
      (fun acc step -> acc + (2 * List.length (Snapshot.edges t.snap ~step)))
      0 (Snapshot.active_steps t.snap)
  in
  contact_dirs + (nodes * (steps - 1))

let pp_step ppf t step =
  let edges = Snapshot.edges t.snap ~step in
  Format.fprintf ppf "t=%d:" step;
  if List.is_empty edges then Format.fprintf ppf " (no contacts)"
  else List.iter (fun (a, b) -> Format.fprintf ppf " %d-%d" a b) edges

let pp ppf t =
  let actives = Snapshot.active_steps t.snap in
  Format.fprintf ppf "space-time graph: %d nodes x %d steps (delta=%g s)@."
    (Snapshot.n_nodes t.snap) (Snapshot.n_steps t.snap)
    (Timegrid.delta (Snapshot.grid t.snap));
  List.iter (fun step -> Format.fprintf ppf "%a@." (fun ppf -> pp_step ppf t) step) actives
