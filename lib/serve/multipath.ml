module Node = Psn_trace.Node
module Path = Psn_paths.Path

type config = { alpha : float; explore : int }

let default_config = { alpha = 0.3; explore = 1 }

type stat = {
  mutable obs : int;
  mutable success : float;  (* EWMA of delivered (1/0) *)
  mutable delay : float;  (* EWMA of delivery delay, seconds *)
  mutable has_delay : bool;  (* delay has absorbed at least one sample *)
  mutable loss : float;  (* EWMA of lost-transfer fraction *)
}

type t = { cfg : config; s_names : string array; stats : stat array }

let create cfg ~names:name_list =
  if not (cfg.alpha > 0. && cfg.alpha <= 1.) then
    Error (Printf.sprintf "router alpha must be in (0, 1] (got %g)" cfg.alpha)
  else if cfg.explore < 0 then
    Error (Printf.sprintf "router explore must be non-negative (got %d)" cfg.explore)
  else if List.length name_list = 0 then Error "router needs at least one strategy"
  else begin
    let sorted = List.sort_uniq String.compare name_list in
    if List.length sorted <> List.length name_list then
      Error "router strategies must be distinct"
    else
      Ok
        {
          cfg;
          s_names = Array.of_list name_list;
          stats =
            Array.init (List.length name_list) (fun _ ->
                { obs = 0; success = 0.; delay = 0.; has_delay = false; loss = 0. });
        }
  end

let index r name =
  let rec find i =
    if i >= Array.length r.s_names then
      invalid_arg (Printf.sprintf "Multipath: unknown strategy %S" name)
    else if String.equal r.s_names.(i) name then i
    else find (i + 1)
  in
  find 0

(* First sample seeds the average directly (no bias toward the zero
   initialisation); later samples fold in with gain alpha. *)
let ewma cfg ~seeded current sample =
  if seeded then ((1. -. cfg.alpha) *. current) +. (cfg.alpha *. sample) else sample

let observe r name ~delivered ~delay ~loss =
  let st = r.stats.(index r name) in
  let seeded = st.obs > 0 in
  st.success <- ewma r.cfg ~seeded st.success (if delivered then 1. else 0.);
  st.loss <- ewma r.cfg ~seeded st.loss loss;
  (match delay with
  | Some d ->
    st.delay <- ewma r.cfg ~seeded:st.has_delay st.delay d;
    st.has_delay <- true
  | None -> ());
  st.obs <- st.obs + 1

let observations r name = r.stats.(index r name).obs

let score_of r (st : stat) =
  if st.obs < r.cfg.explore then 1.
  else begin
    let delay_penalty = if st.has_delay then 1. +. st.delay else 1. in
    st.success *. (1. -. st.loss) /. delay_penalty
  end

let score r name = score_of r r.stats.(index r name)

let pick r =
  let best = ref 0 in
  for i = 1 to Array.length r.s_names - 1 do
    if score_of r r.stats.(i) > score_of r r.stats.(!best) then best := i
  done;
  r.s_names.(!best)

let weights r =
  let scores = Array.map (score_of r) r.stats in
  let total = Array.fold_left ( +. ) 0. scores in
  let n = Array.length scores in
  List.init n (fun i ->
      let w = if total > 0. then scores.(i) /. total else 1. /. float_of_int n in
      (r.s_names.(i), w))

let dump r =
  List.init (Array.length r.s_names) (fun i ->
      let st = r.stats.(i) in
      (r.s_names.(i), (st.obs, st.success, st.delay, st.has_delay, st.loss)))

let load r rows =
  if not (List.equal String.equal (List.map fst rows) (Array.to_list r.s_names)) then
    Error "router state: strategies differ from the router's, in name or order"
  else if List.exists (fun (_, (obs, _, _, _, _)) -> obs < 0) rows then
    Error "router state: negative observation count"
  else begin
    List.iteri
      (fun i (_, (obs, success, delay, has_delay, loss)) ->
        r.stats.(i) <- { obs; success; delay; has_delay; loss })
      rows;
    Ok ()
  end

(* ---- diversity ------------------------------------------------------ *)

let diversity_cap = 32

(* Sorted deduplicated int lists stand in for sets; Jaccard by linear
   merge. Nodes are the visited ids; edges are directed hops packed as
   a * 2^id_bits + b (every id is below [Node.id_bound], checked where
   contacts are parsed, so packing cannot collide). *)
let jaccard xs ys =
  let rec walk inter union xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> (inter, union + List.length rest)
    | x :: xt, y :: yt ->
      if x = y then walk (inter + 1) (union + 1) xt yt
      else if x < y then walk inter (union + 1) xt ys
      else walk inter (union + 1) xs yt
  in
  let inter, union = walk 0 0 xs ys in
  if union = 0 then 1. else float_of_int inter /. float_of_int union

let node_set p = List.sort_uniq Int.compare (Path.nodes p)

let edge_set p =
  let rec hops acc = function
    | a :: (b :: _ as rest) -> hops (((a lsl Node.id_bits) lor b) :: acc) rest
    | _ -> acc
  in
  List.sort_uniq Int.compare (hops [] (Path.nodes p))

let mean_pairwise_overlap sets =
  let arr = Array.of_list sets in
  let n = Array.length arr in
  let total = ref 0. in
  let pairs = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      total := !total +. jaccard arr.(i) arr.(j);
      incr pairs
    done
  done;
  !total /. float_of_int !pairs

let rec take n = function [] -> [] | x :: xs -> if n <= 0 then [] else x :: take (n - 1) xs

let diversity paths =
  let paths = take diversity_cap paths in
  if List.length paths < 2 then None
  else begin
    let node_div = 1. -. mean_pairwise_overlap (List.map node_set paths) in
    let edge_div = 1. -. mean_pairwise_overlap (List.map edge_set paths) in
    Some (node_div, edge_div)
  end
