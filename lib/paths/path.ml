module Snapshot = Psn_spacetime.Snapshot
module Timegrid = Psn_spacetime.Timegrid

type hop = { node : Psn_trace.Node.id; step : int }

type t = hop list  (* non-empty, steps non-decreasing *)

let of_hops hops =
  (match hops with [] -> invalid_arg "Path.of_hops: empty path" | _ -> ());
  let rec check = function
    | a :: (b :: _ as rest) ->
      if b.step < a.step then invalid_arg "Path.of_hops: steps must be non-decreasing";
      check rest
    | [ _ ] | [] -> ()
  in
  check hops;
  hops

let hops t = t

let length = List.length
let transfers t = length t - 1
let nodes t = List.map (fun h -> h.node) t

(* Test-only: to be deleted with its unit tests (ROADMAP, "The test-only
   code left in lib/"). *)
let[@lint.allow "dead-export"] duration grid t ~t_create =
  Timegrid.time_of_step grid (List.nth t (length t - 1)).step -. t_create

(* The §4.1 validity conditions are reference predicates: the enumerator
   never calls them; its property tests check every arrival against them. *)
let[@lint.allow "dead-export"] is_loop_free t =
  let seen = Hashtbl.create 16 in
  List.for_all
    (fun h ->
      if Hashtbl.mem seen h.node then false
      else begin
        Hashtbl.add seen h.node ();
        true
      end)
    t

let[@lint.allow "dead-export"] respects_minimal_progress t ~dst =
  let rec check = function
    | [ _ ] -> true
    | h :: rest -> h.node <> dst && check rest
    | [] -> true
  in
  check t

let[@lint.allow "dead-export"] respects_first_preference snap t ~dst =
  let last = List.nth t (length t - 1) in
  if last.node <> dst then true
  else begin
    let delivery = last.step in
    (* Each intermediate node holds the message from its receipt step
       until the end (infinite buffers), so scan every step before the
       delivery for a premature direct contact with the destination.
       The source only starts forwarding the step after creation, so
       its scan starts one step later. *)
    let rec check ~is_source = function
      | [ _ ] | [] -> true
      | h :: rest ->
        let from = if is_source then h.step + 1 else h.step in
        let rec scan step =
          if step >= delivery then true
          else if Snapshot.in_contact snap ~step h.node dst then false
          else scan (step + 1)
        in
        scan from && check ~is_source:false rest
    in
    check ~is_source:true t
  end

let[@lint.allow "dead-export"] is_valid snap t ~dst =
  is_loop_free t && respects_minimal_progress t ~dst && respects_first_preference snap t ~dst

let[@lint.allow "dead-export"] is_feasible snap t =
  let rec check = function
    | a :: (b :: _ as rest) ->
      let ok =
        if b.step = a.step then Snapshot.in_contact snap ~step:a.step a.node b.node
        else if b.step > a.step then
          (* waiting then transferring: the transfer happens at b.step *)
          a.node = b.node || Snapshot.in_contact snap ~step:b.step a.node b.node
        else false
      in
      ok && check rest
    | [ _ ] | [] -> true
  in
  check t

let pp ppf t =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " -> ")
    (fun ppf h -> Format.fprintf ppf "n%d@@%d" h.node h.step)
    ppf t
