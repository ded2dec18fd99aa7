module Trace = Psn_trace.Trace
module Contact = Psn_trace.Contact

type t = { labels : int array; count : int }

(* Weighted adjacency from total pairwise contact durations. *)
let contact_weights trace =
  let n = Trace.n_nodes trace in
  let w = Hashtbl.create 256 in
  Trace.iter_contacts trace (fun (c : Contact.t) ->
      let key = (c.Contact.a * n) + c.Contact.b in
      let existing = Option.value ~default:0. (Hashtbl.find_opt w key) in
      Hashtbl.replace w key (existing +. Contact.duration c));
  w

let adjacency trace ~min_weight =
  let n = Trace.n_nodes trace in
  let weights = contact_weights trace in
  let adj = Array.make n [] in
  (* Key-ordered so each adjacency list's order — and with it the float
     accumulation order in [detect]'s tally — is trace-determined. *)
  Psn_det.Det_tbl.iter ~cmp:Int.compare
    (fun key weight ->
      if weight >= min_weight then begin
        let a = key / n and b = key mod n in
        adj.(a) <- (b, weight) :: adj.(a);
        adj.(b) <- (a, weight) :: adj.(b)
      end)
    weights;
  adj

(* Relabel to dense [0, count). *)
let compact labels =
  let mapping = Hashtbl.create 16 in
  let next = ref 0 in
  let dense =
    Array.map
      (fun label ->
        match Hashtbl.find_opt mapping label with
        | Some d -> d
        | None ->
          let d = !next in
          Hashtbl.add mapping label d;
          incr next;
          d)
      labels
  in
  (dense, !next)

let detect ?(min_weight = 0.) trace =
  let n = Trace.n_nodes trace in
  let adj = adjacency trace ~min_weight in
  let labels = Array.init n Fun.id in
  (* Synchronous-order label propagation: each node adopts the label
     with the greatest incident weight, ties broken toward the smaller
     label so runs are deterministic. *)
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < 50 do
    changed := false;
    incr rounds;
    for v = 0 to n - 1 do
      if not (List.is_empty adj.(v)) then begin
        let tally = Hashtbl.create 8 in
        List.iter
          (fun (u, weight) ->
            let label = labels.(u) in
            let existing = Option.value ~default:0. (Hashtbl.find_opt tally label) in
            Hashtbl.replace tally label (existing +. weight))
          adj.(v);
        let best = ref labels.(v) and best_weight = ref Float.neg_infinity in
        Psn_det.Det_tbl.iter ~cmp:Int.compare
          (fun label weight ->
            let c = Float.compare weight !best_weight in
            if c > 0 || (c = 0 && label < !best) then begin
              best := label;
              best_weight := weight
            end)
          tally;
        if !best <> labels.(v) then begin
          labels.(v) <- !best;
          changed := true
        end
      end
    done
  done;
  let dense, count = compact labels in
  { labels = dense; count }

let check t node =
  if node < 0 || node >= Array.length t.labels then invalid_arg "Community: node out of range"

let n_communities t = t.count

let members t label =
  if label < 0 || label >= t.count then invalid_arg "Community.members: unknown label";
  let out = ref [] in
  for v = Array.length t.labels - 1 downto 0 do
    if t.labels.(v) = label then out := v :: !out
  done;
  !out

let same_community t a b =
  check t a;
  check t b;
  t.labels.(a) = t.labels.(b)

let sizes t =
  let sizes = Array.make t.count 0 in
  Array.iter (fun label -> sizes.(label) <- sizes.(label) + 1) t.labels;
  sizes

let modularity t trace =
  let n = Trace.n_nodes trace in
  let weights = contact_weights trace in
  let degree = Array.make n 0. in
  let total = ref 0. in
  (* Both passes sum floats: key order fixes the rounding. *)
  Psn_det.Det_tbl.iter ~cmp:Int.compare
    (fun key weight ->
      let a = key / n and b = key mod n in
      degree.(a) <- degree.(a) +. weight;
      degree.(b) <- degree.(b) +. weight;
      total := !total +. weight)
    weights;
  if Float.equal !total 0. then 0.
  else begin
    let two_m = 2. *. !total in
    let q = ref 0. in
    (* Sum over intra-community pairs of (A_ij - k_i k_j / 2m); the
       A_ij term only over existing edges, the null term over all
       same-community ordered pairs. *)
    Psn_det.Det_tbl.iter ~cmp:Int.compare
      (fun key weight ->
        let a = key / n and b = key mod n in
        if t.labels.(a) = t.labels.(b) then q := !q +. (2. *. weight))
      weights;
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if t.labels.(a) = t.labels.(b) then
          q := !q -. (degree.(a) *. degree.(b) /. two_m)
      done
    done;
    !q /. two_m
  end
