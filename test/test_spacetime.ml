(* Tests for the psn_spacetime library: the time grid, per-step contact
   snapshots, their Fig. 2 rendering, and epidemic flooding. *)

module Contact = Core.Contact
module Trace = Core.Trace
module Timegrid = Core.Timegrid
module Snapshot = Core.Snapshot
module Reachability = Core.Reachability

let feps = Alcotest.float 1e-9

(* --- Timegrid --- *)

let test_grid_basics () =
  let g = Timegrid.create ~horizon:100. () in
  Alcotest.check feps "delta default" 10. (Timegrid.delta g);
  Alcotest.(check int) "steps" 10 (Timegrid.n_steps g);
  Alcotest.(check int) "step of 0" 1 (Timegrid.step_of_time g 0.);
  Alcotest.(check int) "step of 9.99" 1 (Timegrid.step_of_time g 9.99);
  Alcotest.(check int) "step of 10" 2 (Timegrid.step_of_time g 10.);
  Alcotest.(check int) "step of 99.9" 10 (Timegrid.step_of_time g 99.9);
  Alcotest.check feps "time of step" 30. (Timegrid.time_of_step g 3)

let test_grid_overlap () =
  let g = Timegrid.create ~horizon:100. () in
  let first, last = Timegrid.steps_overlapping g ~t_start:12. ~t_end:31. in
  (* [12, 31) intersects steps 2 (10-20), 3 (20-30), 4 (30-40) *)
  Alcotest.(check int) "first" 2 first;
  Alcotest.(check int) "last" 4 last;
  let first, last = Timegrid.steps_overlapping g ~t_start:10. ~t_end:20. in
  Alcotest.(check int) "exact bin first" 2 first;
  Alcotest.(check int) "exact bin last" 2 last

let test_grid_errors () =
  let g = Timegrid.create ~horizon:100. () in
  Alcotest.check_raises "time past horizon"
    (Invalid_argument "Timegrid.step_of_time: outside horizon") (fun () ->
      ignore (Timegrid.step_of_time g 100.));
  Alcotest.check_raises "nan time"
    (Invalid_argument "Timegrid.step_of_time: outside horizon") (fun () ->
      ignore (Timegrid.step_of_time g Float.nan));
  Alcotest.check_raises "step 0" (Invalid_argument "Timegrid: step out of range") (fun () ->
      ignore (Timegrid.time_of_step g 0))

(* --- Snapshot --- *)

(* A row of the flat layout as a list. *)
let neighbours snap ~step node =
  let i = Snapshot.cell snap ~step node in
  let off = Snapshot.offsets snap and targets = Snapshot.targets snap in
  List.init (off.(i + 1) - off.(i)) (fun j -> targets.(off.(i) + j))

(* A node's component (sorted, itself included), and a step's
   components in node order, through one [Snapshot.spread] queue. *)
let component_of snap ~step node =
  let seen = Array.make (Snapshot.n_nodes snap) false in
  let queue = Array.make (Snapshot.n_nodes snap) node in
  seen.(node) <- true;
  let len = Snapshot.spread snap ~step ~seen queue ~from:0 ~until:1 in
  List.sort Int.compare (List.init len (fun i -> queue.(i)))

let components snap ~step =
  let n = Snapshot.n_nodes snap in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let out = ref [] and len = ref 0 in
  for node = 0 to n - 1 do
    if (not seen.(node)) && neighbours snap ~step node <> [] then begin
      seen.(node) <- true;
      queue.(!len) <- node;
      let stop = Snapshot.spread snap ~step ~seen queue ~from:!len ~until:(!len + 1) in
      out := List.sort Int.compare (List.init (stop - !len) (fun i -> queue.(!len + i))) :: !out;
      len := stop
    end
  done;
  List.rev !out

(* The list-per-cell build the flat layout replaced, kept as the
   reference it must match: [adj.(step - 1).(node)] is the sorted,
   deduplicated neighbour list. *)
let reference_rows ?delta trace =
  let grid = Timegrid.create ?delta ~horizon:(Trace.horizon trace) () in
  let n = Trace.n_nodes trace in
  let adj = Array.init (Timegrid.n_steps grid) (fun _ -> Array.make n []) in
  Trace.iter_contacts trace (fun (c : Contact.t) ->
      let first, last =
        Timegrid.steps_overlapping grid ~t_start:c.Contact.t_start ~t_end:c.Contact.t_end
      in
      for step = first to last do
        let row = adj.(step - 1) in
        row.(c.Contact.a) <- c.Contact.b :: row.(c.Contact.a);
        row.(c.Contact.b) <- c.Contact.a :: row.(c.Contact.b)
      done);
  Array.iter (fun row -> Array.iteri (fun i ns -> row.(i) <- List.sort_uniq Int.compare ns) row) adj;
  adj

(* The reference closure: breadth first over the list rows. *)
let reference_component adj ~step node =
  let row = adj.(step - 1) in
  let seen = Array.make (Array.length row) false in
  seen.(node) <- true;
  let rec bfs frontier acc =
    match frontier with
    | [] -> acc
    | x :: rest ->
      let fresh = List.filter (fun y -> not seen.(y)) row.(x) in
      List.iter (fun y -> seen.(y) <- true) fresh;
      bfs (rest @ fresh) (fresh @ acc)
  in
  List.sort Int.compare (bfs [ node ] [ node ])

(* Nodes 0-1 touch in step 1; 0-1, 1-2, 2-3 in step 2; nothing later. *)
let sample_trace () =
  Trace.create ~n_nodes:5 ~horizon:50.
    [
      Contact.make ~a:0 ~b:1 ~t_start:2. ~t_end:8.;
      Contact.make ~a:0 ~b:1 ~t_start:12. ~t_end:18.;
      Contact.make ~a:1 ~b:2 ~t_start:13. ~t_end:19.;
      Contact.make ~a:2 ~b:3 ~t_start:11. ~t_end:14.;
    ]

let test_snapshot_neighbours () =
  let snap = Snapshot.of_trace (sample_trace ()) in
  Alcotest.(check (list int)) "step1 n0" [ 1 ] (neighbours snap ~step:1 0);
  Alcotest.(check (list int)) "step2 n1" [ 0; 2 ] (neighbours snap ~step:2 1);
  Alcotest.(check (list int)) "step3 empty" [] (neighbours snap ~step:3 1);
  Alcotest.(check bool) "in_contact" true (Snapshot.in_contact snap ~step:2 2 3);
  Alcotest.(check bool) "not in contact" false (Snapshot.in_contact snap ~step:1 2 3)

let test_snapshot_edges_dedup () =
  (* Two contacts of the same pair within one step produce one edge. *)
  let t =
    Trace.create ~n_nodes:2 ~horizon:20.
      [
        Contact.make ~a:0 ~b:1 ~t_start:1. ~t_end:3.;
        Contact.make ~a:0 ~b:1 ~t_start:5. ~t_end:7.;
      ]
  in
  let snap = Snapshot.of_trace t in
  Alcotest.(check (list (pair int int))) "single edge" [ (0, 1) ] (Snapshot.edges snap ~step:1)

let test_snapshot_active_steps () =
  let snap = Snapshot.of_trace (sample_trace ()) in
  Alcotest.(check (list int)) "active" [ 1; 2 ] (Snapshot.active_steps snap)

let test_snapshot_components () =
  let snap = Snapshot.of_trace (sample_trace ()) in
  let comps = components snap ~step:2 in
  Alcotest.(check int) "one component" 1 (List.length comps);
  Alcotest.(check (list int)) "chain closure" [ 0; 1; 2; 3 ] (List.hd comps);
  Alcotest.(check (list int)) "component_of node 3" [ 0; 1; 2; 3 ] (component_of snap ~step:2 3);
  Alcotest.(check (list int)) "isolated node" [ 4 ] (component_of snap ~step:2 4)

let test_snapshot_contact_spanning_steps () =
  let t =
    Trace.create ~n_nodes:2 ~horizon:50. [ Contact.make ~a:0 ~b:1 ~t_start:5. ~t_end:25. ]
  in
  let snap = Snapshot.of_trace t in
  Alcotest.(check (list int)) "spans steps 1-3" [ 1; 2; 3 ] (Snapshot.active_steps snap)

(* The build allocates its two arrays, one row cell per (step, node)
   and one entry per contact-step endpoint, plus a constant per contact
   (its step range). The bound leaves half again on top; a list per
   cell (three words a cons, before any sorting) does not fit. *)
let test_snapshot_alloc_linear () =
  let trace = Core.Dataset.generate Core.Dataset.infocom06_am in
  let grid = Timegrid.create ~horizon:(Trace.horizon trace) () in
  let cells = Timegrid.n_steps grid * Trace.n_nodes trace in
  let contact_steps = ref 0 in
  Trace.iter_contacts trace (fun (c : Contact.t) ->
      let first, last =
        Timegrid.steps_overlapping grid ~t_start:c.Contact.t_start ~t_end:c.Contact.t_end
      in
      contact_steps := !contact_steps + (last - first + 1));
  let words_bound =
    (3 * (cells + (2 * !contact_steps)) / 2) + (8 * Trace.n_contacts trace) + 4096
  in
  let word = float_of_int (Sys.word_size / 8) in
  let before = Gc.allocated_bytes () in
  let snap = Snapshot.of_trace trace in
  let words = (Gc.allocated_bytes () -. before) /. word in
  Alcotest.(check int) "steps" (Timegrid.n_steps grid) (Snapshot.n_steps snap);
  if words > float_of_int words_bound then
    Alcotest.failf "of_trace allocated %.0f words (bound %d: %d cells, %d contact-steps)" words
      words_bound cells !contact_steps

(* --- Fig. 2 rendering --- *)

let test_graph_render () =
  (* The paper's three-node example, one line per active step in
     [Snapshot.edges] order. *)
  Alcotest.(check string) "fig 2"
    "space-time graph: 3 nodes x 2 steps (delta=10 s)\nt=1: 0-1\nt=2: 0-2 0-1 1-2\n"
    (Core.Experiments.fig2 ())

(* --- Reachability --- *)

let test_flood_direct () =
  (* Message created at t=0 (step 1); contact 0-1 lives through step 2,
     so delivery happens at step 2 = 20 s. *)
  let t =
    Trace.create ~n_nodes:3 ~horizon:50. [ Contact.make ~a:0 ~b:1 ~t_start:2. ~t_end:18. ]
  in
  let snap = Snapshot.of_trace t in
  let fl = Reachability.flood snap ~src:0 ~t_create:0. in
  Alcotest.(check (option int)) "arrival step" (Some 2) (Reachability.arrival_step fl 1);
  Alcotest.check feps "delay" 20. (Option.get (Reachability.delivery_delay fl ~dst:1));
  Alcotest.(check (option int)) "unreached" None (Reachability.arrival_step fl 2);
  Alcotest.(check int) "reached" 2 (Reachability.reached fl)

let test_flood_multihop_chain () =
  (* 0-1 at step 2, 1-2 at step 4: two-hop relay over time. *)
  let t =
    Trace.create ~n_nodes:3 ~horizon:60.
      [
        Contact.make ~a:0 ~b:1 ~t_start:11. ~t_end:19.;
        Contact.make ~a:1 ~b:2 ~t_start:31. ~t_end:39.;
      ]
  in
  let snap = Snapshot.of_trace t in
  let fl = Reachability.flood snap ~src:0 ~t_create:0. in
  Alcotest.(check (option int)) "relay arrival" (Some 4) (Reachability.arrival_step fl 2)

let test_flood_same_step_chain () =
  (* 0-1 and 1-2 overlap in the same step: zero-weight chain. *)
  let t =
    Trace.create ~n_nodes:3 ~horizon:60.
      [
        Contact.make ~a:0 ~b:1 ~t_start:11. ~t_end:19.;
        Contact.make ~a:1 ~b:2 ~t_start:12. ~t_end:18.;
      ]
  in
  let snap = Snapshot.of_trace t in
  let fl = Reachability.flood snap ~src:0 ~t_create:0. in
  Alcotest.(check (option int)) "chain in one step" (Some 2) (Reachability.arrival_step fl 2)

let test_flood_ignores_past_contacts () =
  (* The only contact ends before the message exists: no delivery. *)
  let t =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:5. ~t_end:15. ]
  in
  let snap = Snapshot.of_trace t in
  let fl = Reachability.flood snap ~src:0 ~t_create:40. in
  Alcotest.(check (option int)) "no arrival" None (Reachability.arrival_step fl 1)

let test_flood_source_arrival () =
  let t =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:5. ~t_end:15. ]
  in
  let snap = Snapshot.of_trace t in
  let fl = Reachability.flood snap ~src:0 ~t_create:42. in
  Alcotest.(check (option int)) "source holds from creation step" (Some 5)
    (Reachability.arrival_step fl 0)

(* --- qcheck properties --- *)

let qcheck_tests =
  let open QCheck2 in
  let gen_trace =
    Gen.(
      let* n_nodes = int_range 2 10 in
      let* n_contacts = int_range 1 30 in
      let* raw =
        list_repeat n_contacts
          (triple (int_range 0 (n_nodes - 1)) (int_range 0 (n_nodes - 1))
             (pair (float_range 0. 90.) (float_range 0.5 30.)))
      in
      let contacts =
        List.filter_map
          (fun (a, b, (s, d)) ->
            if a = b then None else Some (Contact.make ~a ~b ~t_start:s ~t_end:(s +. d)))
          raw
      in
      return (Trace.create ~n_nodes ~horizon:120. contacts))
  in
  (* Duplicate records (an exact repeat, or the same pair again inside
     the contact), contacts spanning up to the whole horizon, and grids
     finer and coarser than the paper's. *)
  let gen_dense =
    Gen.(
      let* n_nodes = int_range 2 12 in
      let* delta = oneofl [ 1.; 7.5; 10.; 40. ] in
      let* raw =
        list_size (int_range 0 40)
          (quad (int_range 0 (n_nodes - 1)) (int_range 0 (n_nodes - 1)) (float_range 0. 119.)
             (pair (float_range 0.01 120.) (int_range 0 2)))
      in
      let contacts =
        List.concat_map
          (fun (a, b, s, (d, dup)) ->
            if a = b then []
            else
              let c = Contact.make ~a ~b ~t_start:s ~t_end:(s +. d) in
              match dup with
              | 0 -> [ c ]
              | 1 -> [ c; c ]
              | _ ->
                let e = Float.min (s +. d) 120. in
                [ c; Contact.make ~a:b ~b:a ~t_start:((s +. e) /. 2.) ~t_end:e ])
          raw
      in
      return (delta, Trace.create ~n_nodes ~horizon:120. contacts))
  in
  [
    Test.make ~name:"flat rows equal the list reference" ~count:300 gen_dense
      (fun (delta, t) ->
        let snap = Snapshot.of_trace ~delta t in
        let adj = reference_rows ~delta t in
        let n = Trace.n_nodes t in
        Snapshot.n_steps snap = Array.length adj
        && Array.for_all Fun.id
             (Array.mapi
                (fun i row ->
                  let step = i + 1 in
                  Array.for_all Fun.id
                    (Array.mapi
                       (fun a ns ->
                         neighbours snap ~step a = ns
                         && List.for_all (fun b -> List.mem a row.(b)) ns
                         && component_of snap ~step a = reference_component adj ~step a
                         && List.for_all
                              (fun b -> Snapshot.in_contact snap ~step a b = List.mem b ns)
                              (List.init n Fun.id))
                       row))
                adj));
    Test.make ~name:"components partition non-isolated nodes" ~count:100 gen_trace (fun t ->
        let snap = Snapshot.of_trace t in
        List.for_all
          (fun step ->
            let comps = components snap ~step in
            let all = List.concat comps in
            List.length all = List.length (List.sort_uniq Int.compare all)
            && List.for_all (fun comp -> List.length comp >= 2) comps)
          (Snapshot.active_steps snap));
    Test.make ~name:"snapshot adjacency is symmetric" ~count:100 gen_trace (fun t ->
        let snap = Snapshot.of_trace t in
        List.for_all
          (fun step ->
            List.for_all
              (fun (a, b) ->
                Snapshot.in_contact snap ~step a b && Snapshot.in_contact snap ~step b a)
              (Snapshot.edges snap ~step))
          (Snapshot.active_steps snap));
    Test.make ~name:"flood reaches a superset over later creation times" ~count:60 gen_trace
      (fun t ->
        let snap = Snapshot.of_trace t in
        (* A later start sees only a subset of the contact events, and
           the early flood already holds the message wherever the late
           one begins, so late can never reach more nodes. *)
        let early = Reachability.flood snap ~src:0 ~t_create:0. in
        let late = Reachability.flood snap ~src:0 ~t_create:60. in
        Reachability.reached late <= Reachability.reached early);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "psn_spacetime"
    [
      ( "timegrid",
        [
          Alcotest.test_case "basics" `Quick test_grid_basics;
          Alcotest.test_case "overlap ranges" `Quick test_grid_overlap;
          Alcotest.test_case "errors" `Quick test_grid_errors;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "neighbours" `Quick test_snapshot_neighbours;
          Alcotest.test_case "edge dedup" `Quick test_snapshot_edges_dedup;
          Alcotest.test_case "active steps" `Quick test_snapshot_active_steps;
          Alcotest.test_case "components" `Quick test_snapshot_components;
          Alcotest.test_case "contact spans steps" `Quick test_snapshot_contact_spanning_steps;
          Alcotest.test_case "allocation linear in cells and contact-steps" `Quick
            test_snapshot_alloc_linear;
        ] );
      ( "graph",
        [
          Alcotest.test_case "rendering" `Quick test_graph_render;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "direct contact" `Quick test_flood_direct;
          Alcotest.test_case "multi-hop over time" `Quick test_flood_multihop_chain;
          Alcotest.test_case "same-step chain" `Quick test_flood_same_step_chain;
          Alcotest.test_case "ignores past contacts" `Quick test_flood_ignores_past_contacts;
          Alcotest.test_case "source arrival" `Quick test_flood_source_arrival;
        ] );
      ("properties", qcheck_tests);
    ]
