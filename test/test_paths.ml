(* Tests for the psn_paths library: path validity predicates, the
   Fig. 3 enumeration algorithm (against hand-worked scenarios and the
   flooding oracle), and the explosion metrics. *)

module Contact = Core.Contact
module Trace = Core.Trace
module Snapshot = Core.Snapshot
module Path = Core.Path
module Enumerate = Core.Enumerate
module Explosion = Core.Explosion
module Reachability = Core.Reachability
module Rng = Core.Rng

let feps = Alcotest.float 1e-9

let hop node step = { Path.node; step }

(* A fixed scenario used across the predicate tests:
   step 1: 0-1        step 2: 1-2, 0-3      step 3: 2-3, 1-3 *)
let scenario_snapshot () =
  let t =
    Trace.create ~n_nodes:4 ~horizon:40.
      [
        Contact.make ~a:0 ~b:1 ~t_start:1. ~t_end:9.;
        Contact.make ~a:1 ~b:2 ~t_start:11. ~t_end:19.;
        Contact.make ~a:0 ~b:3 ~t_start:12. ~t_end:18.;
        Contact.make ~a:2 ~b:3 ~t_start:21. ~t_end:29.;
        Contact.make ~a:1 ~b:3 ~t_start:22. ~t_end:28.;
      ]
  in
  Snapshot.of_trace t

(* --- Path basics --- *)

let test_path_of_hops_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Path.of_hops: empty path") (fun () ->
      ignore (Path.of_hops []));
  Alcotest.check_raises "time travel"
    (Invalid_argument "Path.of_hops: steps must be non-decreasing") (fun () ->
      ignore (Path.of_hops [ hop 0 5; hop 1 3 ]))

let test_path_accessors () =
  let p = Path.of_hops [ hop 0 1; hop 1 2; hop 2 2; hop 3 4 ] in
  Alcotest.(check int) "length" 4 (Path.length p);
  Alcotest.(check int) "transfers" 3 (Path.transfers p);
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3 ] (Path.nodes p)

let test_loop_free () =
  Alcotest.(check bool) "loop free" true (Path.is_loop_free (Path.of_hops [ hop 0 1; hop 1 2 ]));
  Alcotest.(check bool) "loop" false
    (Path.is_loop_free (Path.of_hops [ hop 0 1; hop 1 2; hop 0 3 ]))

let test_minimal_progress () =
  let p = Path.of_hops [ hop 0 1; hop 2 2; hop 3 3 ] in
  Alcotest.(check bool) "dst at end ok" true (Path.respects_minimal_progress p ~dst:3);
  Alcotest.(check bool) "dst in middle bad" false (Path.respects_minimal_progress p ~dst:2);
  Alcotest.(check bool) "dst absent ok" true (Path.respects_minimal_progress p ~dst:9)

let test_first_preference () =
  let snap = scenario_snapshot () in
  (* Node 0 meets node 3 in step 2. A path holding the message at node 0
     through step 2 but delivering to 3 only at step 3 is dominated. *)
  let bad = Path.of_hops [ hop 0 1; hop 1 2; hop 3 3 ] in
  Alcotest.(check bool) "path via node 1 at step 2 delivering step 3, src 0 met dst step 2" false
    (Path.respects_first_preference snap bad ~dst:3);
  (* Delivering exactly at the step where the contact happens is fine. *)
  let ok = Path.of_hops [ hop 0 1; hop 3 2 ] in
  Alcotest.(check bool) "same-step delivery allowed" true
    (Path.respects_first_preference snap ok ~dst:3)

let test_feasibility () =
  let snap = scenario_snapshot () in
  Alcotest.(check bool) "real path feasible" true
    (Path.is_feasible snap (Path.of_hops [ hop 0 1; hop 1 1; hop 2 2 ]));
  Alcotest.(check bool) "teleport infeasible" false
    (Path.is_feasible snap (Path.of_hops [ hop 0 1; hop 2 1 ]))

(* --- Enumeration: hand-worked scenarios --- *)

let run ?(k = 100) ?stop ?(exhaustive = false) snap ~src ~dst ~t_create =
  Enumerate.run
    ~config:{ Enumerate.k; max_hops = None; stop_at_total = stop; exhaustive }
    snap ~src ~dst ~t_create

(* ROADMAP item 2's minimal case: contact 0-2 persists over steps 3
   and 4, so 0 can hand the message to 2 at either step. Fast mode
   extends a path over an edge only in the step the edge appears, so it
   drops the later crossing; exhaustive mode, the paper's per-step
   Fig. 3 DP, keeps both (same step and hops, listed in table order).
   The first arrival agrees. *)
let test_enumerate_persisting_contact () =
  let t =
    Trace.create ~n_nodes:3 ~horizon:100.
      [
        Contact.make ~a:0 ~b:2 ~t_start:21. ~t_end:39.;
        Contact.make ~a:1 ~b:2 ~t_start:61. ~t_end:79.;
      ]
  in
  let snap = Snapshot.of_trace t in
  let paths exhaustive =
    let config = { Enumerate.k = 1000; max_hops = None; stop_at_total = None; exhaustive } in
    let r = Enumerate.run ~config snap ~src:0 ~dst:1 ~t_create:0. in
    Array.to_list r.Enumerate.arrivals
    |> List.map (fun a -> Format.asprintf "%a" Path.pp a.Enumerate.path)
  in
  Alcotest.(check (list string)) "fast" [ "n0@1 -> n2@3 -> n1@7" ] (paths false);
  Alcotest.(check (list string))
    "exhaustive" [ "n0@1 -> n2@4 -> n1@7"; "n0@1 -> n2@3 -> n1@7" ] (paths true)

let test_enumerate_two_hop () =
  (* 0-1 in step 2 only, 1-2 in step 4 only: exactly one valid path. *)
  let t =
    Trace.create ~n_nodes:3 ~horizon:60.
      [
        Contact.make ~a:0 ~b:1 ~t_start:11. ~t_end:19.;
        Contact.make ~a:1 ~b:2 ~t_start:31. ~t_end:39.;
      ]
  in
  let snap = Snapshot.of_trace t in
  let result = run snap ~src:0 ~dst:2 ~t_create:0. in
  Alcotest.(check int) "one path" 1 (Array.length result.Enumerate.arrivals);
  let a = result.Enumerate.arrivals.(0) in
  Alcotest.check feps "arrival time" 40. a.Enumerate.time;
  Alcotest.(check (list int)) "route" [ 0; 1; 2 ] (Path.nodes a.Enumerate.path)

let test_enumerate_parallel_relays () =
  (* Two disjoint relays move the message from 0 to 3: 0-1 and 0-2 in
     step 2, then 1-3 and 2-3 in step 4 -> exactly two valid paths. *)
  let t =
    Trace.create ~n_nodes:4 ~horizon:60.
      [
        Contact.make ~a:0 ~b:1 ~t_start:11. ~t_end:19.;
        Contact.make ~a:0 ~b:2 ~t_start:12. ~t_end:18.;
        Contact.make ~a:1 ~b:3 ~t_start:31. ~t_end:39.;
        Contact.make ~a:2 ~b:3 ~t_start:32. ~t_end:38.;
      ]
  in
  let snap = Snapshot.of_trace t in
  let result = run snap ~src:0 ~dst:3 ~t_create:0. in
  Alcotest.(check int) "two paths" 2 (Array.length result.Enumerate.arrivals);
  Array.iter
    (fun (a : Enumerate.arrival) -> Alcotest.check feps "same arrival step" 40. a.Enumerate.time)
    result.Enumerate.arrivals

let test_enumerate_first_preference_pruning () =
  (* 0-1 step 2; 1 meets dst 2 at step 3 AND relays to 3 at step 3; 3
     meets dst at step 5. The path 0-1-3-2 would deliver at step 5 but
     node 1 already met the destination at step 3 -> only two valid
     paths: 0-1-2 (step 3) and nothing via 3. *)
  let t =
    Trace.create ~n_nodes:4 ~horizon:80.
      [
        Contact.make ~a:0 ~b:1 ~t_start:11. ~t_end:19.;
        Contact.make ~a:1 ~b:2 ~t_start:21. ~t_end:29.;
        Contact.make ~a:1 ~b:3 ~t_start:22. ~t_end:28.;
        Contact.make ~a:2 ~b:3 ~t_start:41. ~t_end:49.;
      ]
  in
  let snap = Snapshot.of_trace t in
  let result = run snap ~src:0 ~dst:2 ~t_create:0. in
  let routes =
    Array.to_list result.Enumerate.arrivals
    |> List.map (fun (a : Enumerate.arrival) -> Path.nodes a.Enumerate.path)
  in
  Alcotest.(check bool) "direct relay delivered" true (List.mem [ 0; 1; 2 ] routes);
  Alcotest.(check bool) "dominated path pruned" false (List.mem [ 0; 1; 3; 2 ] routes)

let test_enumerate_same_step_chain_delivery () =
  (* 0-1 and 1-2 in the same step: the chain 0->1->2 delivers in one
     step even though node 1 first received the message that step. *)
  let t =
    Trace.create ~n_nodes:3 ~horizon:60.
      [
        Contact.make ~a:0 ~b:1 ~t_start:11. ~t_end:19.;
        Contact.make ~a:1 ~b:2 ~t_start:12. ~t_end:18.;
      ]
  in
  let snap = Snapshot.of_trace t in
  let result = run snap ~src:0 ~dst:2 ~t_create:0. in
  Alcotest.(check int) "one path" 1 (Array.length result.Enumerate.arrivals);
  Alcotest.check feps "delivered in step 2" 20. result.Enumerate.arrivals.(0).Enumerate.time

let test_enumerate_k_stop () =
  (* A clique of relays creates many paths in the same step; with a tiny
     k the enumeration stops at that step and reports stopped_early. *)
  let contacts =
    List.concat_map
      (fun r ->
        [
          Contact.make ~a:0 ~b:r ~t_start:11. ~t_end:19.;
          Contact.make ~a:r ~b:6 ~t_start:31. ~t_end:39.;
        ])
      [ 1; 2; 3; 4; 5 ]
  in
  let t = Trace.create ~n_nodes:7 ~horizon:60. contacts in
  let snap = Snapshot.of_trace t in
  let result = run ~k:3 snap ~src:0 ~dst:6 ~t_create:0. in
  Alcotest.(check bool) "stopped early" true result.Enumerate.stopped_early;
  Alcotest.(check int) "k arrivals recorded" 3 (Array.length result.Enumerate.arrivals)

let test_enumerate_stop_at_total () =
  let contacts =
    List.concat_map
      (fun r ->
        [
          Contact.make ~a:0 ~b:r ~t_start:11. ~t_end:19.;
          Contact.make ~a:r ~b:6 ~t_start:31. ~t_end:39.;
        ])
      [ 1; 2; 3; 4; 5 ]
  in
  let t = Trace.create ~n_nodes:7 ~horizon:60. contacts in
  let snap = Snapshot.of_trace t in
  let result = run ~k:100 ~stop:2 snap ~src:0 ~dst:6 ~t_create:0. in
  Alcotest.(check bool) "stopped early" true result.Enumerate.stopped_early;
  Alcotest.(check int) "two arrivals" 2 (Array.length result.Enumerate.arrivals)

let test_enumerate_no_delivery () =
  let t =
    Trace.create ~n_nodes:3 ~horizon:60. [ Contact.make ~a:0 ~b:1 ~t_start:11. ~t_end:19. ]
  in
  let snap = Snapshot.of_trace t in
  let result = run snap ~src:0 ~dst:2 ~t_create:0. in
  Alcotest.(check int) "no arrivals" 0 (Array.length result.Enumerate.arrivals);
  Alcotest.(check bool) "not early" false result.Enumerate.stopped_early;
  Alcotest.(check (option unit)) "first_arrival none" None
    (Option.map ignore (Enumerate.first_arrival result))

let test_enumerate_errors () =
  let t =
    Trace.create ~n_nodes:3 ~horizon:60. [ Contact.make ~a:0 ~b:1 ~t_start:11. ~t_end:19. ]
  in
  let snap = Snapshot.of_trace t in
  Alcotest.check_raises "src=dst" (Invalid_argument "Enumerate.run: src = dst") (fun () ->
      ignore (run snap ~src:1 ~dst:1 ~t_create:0.));
  let config = { Enumerate.k = 10; max_hops = None; stop_at_total = None; exhaustive = false } in
  let run_with config = ignore (Enumerate.run ~config snap ~src:0 ~dst:2 ~t_create:0.) in
  Alcotest.check_raises "k=0" (Invalid_argument "Enumerate.run: k must be positive") (fun () ->
      run_with { config with Enumerate.k = 0 });
  List.iter
    (fun h ->
      Alcotest.check_raises
        (Printf.sprintf "max_hops=%d" h)
        (Invalid_argument "Enumerate.run: max_hops must be positive")
        (fun () -> run_with { config with Enumerate.max_hops = Some h }))
    [ 0; -1 ];
  List.iter
    (fun t ->
      Alcotest.check_raises
        (Printf.sprintf "stop_at_total=%d" t)
        (Invalid_argument "Enumerate.run: stop_at_total must be positive")
        (fun () -> run_with { config with Enumerate.stop_at_total = Some t }))
    [ 0; -3 ];
  (* The smallest legal values run. *)
  run_with { config with Enumerate.max_hops = Some 1; stop_at_total = Some 1 }

(* --- Enumeration: the first-preference kill across steps ---

   Each case lists every arrival (path and step), the steps processed
   and the stop flag; both modes agree on all of them here. *)

let modes = [ false; true ]

let check_arrivals name ?(k = 100) ?stop trace ~src ~dst ~steps ~stopped ~paths =
  let snap = Snapshot.of_trace trace in
  List.iter
    (fun exhaustive ->
      let mode = if exhaustive then name ^ " (exhaustive)" else name ^ " (fast)" in
      let r = run ~k ?stop ~exhaustive snap ~src ~dst ~t_create:0. in
      Alcotest.(check int) (mode ^ " steps") steps r.Enumerate.steps_processed;
      Alcotest.(check bool) (mode ^ " stopped early") stopped r.Enumerate.stopped_early;
      Alcotest.(check (list string))
        (mode ^ " arrivals") paths
        (Array.to_list r.Enumerate.arrivals
        |> List.map (fun a ->
               Format.asprintf "%a at %d" Path.pp a.Enumerate.path a.Enumerate.step)))
    modes

(* The destination 3 meets x = 1 over steps 3-6. A path through x born
   at step 5, after the kill of step 3, still meets the destination's
   row and is dropped at step 5, so 1 cannot carry it to 2 at step 8
   and on to 3 at step 10. *)
let test_enumerate_kill_persisting_neighbour () =
  let t =
    Trace.create ~n_nodes:4 ~horizon:100.
      [
        Contact.make ~a:1 ~b:3 ~t_start:21. ~t_end:59.;
        Contact.make ~a:0 ~b:2 ~t_start:22. ~t_end:28.;
        Contact.make ~a:0 ~b:1 ~t_start:41. ~t_end:49.;
        Contact.make ~a:1 ~b:2 ~t_start:71. ~t_end:79.;
        Contact.make ~a:2 ~b:3 ~t_start:91. ~t_end:99.;
      ]
  in
  let paths = [ "n0@1 -> n1@5 -> n3@5 at 5"; "n0@1 -> n2@3 -> n3@10 at 10" ] in
  check_arrivals "persisting neighbour" t ~src:0 ~dst:3 ~steps:9 ~stopped:false ~paths

(* The destination 4 meets x = 1 from step 4 and gains y = 2 at step
   6. The paths 0-2 and 0-2-3, retained since before the kill of step
   4, visited y and are dropped at step 6, so 3 delivers nothing at
   step 8. *)
let test_enumerate_kill_new_neighbour () =
  let t =
    Trace.create ~n_nodes:5 ~horizon:100.
      [
        Contact.make ~a:0 ~b:2 ~t_start:11. ~t_end:19.;
        Contact.make ~a:2 ~b:3 ~t_start:21. ~t_end:29.;
        Contact.make ~a:1 ~b:4 ~t_start:31. ~t_end:59.;
        Contact.make ~a:0 ~b:1 ~t_start:32. ~t_end:38.;
        Contact.make ~a:2 ~b:4 ~t_start:51. ~t_end:59.;
        Contact.make ~a:3 ~b:4 ~t_start:71. ~t_end:79.;
      ]
  in
  let paths = [ "n0@1 -> n1@4 -> n4@4 at 4"; "n0@1 -> n2@2 -> n4@6 at 6" ] in
  check_arrivals "new neighbour" t ~src:0 ~dst:4 ~steps:9 ~stopped:false ~paths

(* The destination 4 meets 3 at step 4, when 3 holds no path and no
   other holder has an edge: no path is active, so no kill runs. The
   next kill, at step 6, is on the changed row {2, 3}; those at steps
   8 and 9 are on {3} and {2}. *)
let test_enumerate_kill_after_idle_step () =
  let t =
    Trace.create ~n_nodes:5 ~horizon:100.
      [
        Contact.make ~a:0 ~b:1 ~t_start:11. ~t_end:19.;
        Contact.make ~a:1 ~b:4 ~t_start:12. ~t_end:18.;
        Contact.make ~a:0 ~b:2 ~t_start:21. ~t_end:29.;
        Contact.make ~a:3 ~b:4 ~t_start:31. ~t_end:39.;
        Contact.make ~a:2 ~b:3 ~t_start:41. ~t_end:49.;
        Contact.make ~a:2 ~b:4 ~t_start:51. ~t_end:59.;
        Contact.make ~a:3 ~b:4 ~t_start:52. ~t_end:58.;
        Contact.make ~a:0 ~b:3 ~t_start:71. ~t_end:79.;
        Contact.make ~a:3 ~b:4 ~t_start:72. ~t_end:78.;
        Contact.make ~a:0 ~b:2 ~t_start:81. ~t_end:89.;
        Contact.make ~a:2 ~b:4 ~t_start:82. ~t_end:88.;
      ]
  in
  let paths =
    [
      "n0@1 -> n1@2 -> n4@2 at 2";
      "n0@1 -> n2@3 -> n4@6 at 6";
      "n0@1 -> n2@3 -> n3@5 -> n4@6 at 6";
      "n0@1 -> n3@8 -> n4@8 at 8";
      "n0@1 -> n2@9 -> n4@9 at 9";
    ]
  in
  check_arrivals "kill after idle step" t ~src:0 ~dst:4 ~steps:9 ~stopped:false ~paths

(* A kill on row {1} at step 2, then relays 2-5 meet the destination 6
   together with 1 at step 5: the stop fires after the second (k = 2)
   or third (total 3) arrival of that step, and the run ends there. *)
let test_enumerate_stop_mid_step () =
  let t =
    Trace.create ~n_nodes:7 ~horizon:100.
      ([
         Contact.make ~a:0 ~b:1 ~t_start:11. ~t_end:19.;
         Contact.make ~a:1 ~b:6 ~t_start:12. ~t_end:18.;
         Contact.make ~a:1 ~b:6 ~t_start:41. ~t_end:49.;
       ]
      @ List.concat_map
          (fun r ->
            [
              Contact.make ~a:0 ~b:r ~t_start:21. ~t_end:29.;
              Contact.make ~a:r ~b:6 ~t_start:42. ~t_end:48.;
            ])
          [ 2; 3; 4; 5 ])
  in
  let paths =
    [ "n0@1 -> n1@2 -> n6@2 at 2"; "n0@1 -> n5@3 -> n6@5 at 5"; "n0@1 -> n4@3 -> n6@5 at 5" ]
  in
  check_arrivals "k = 2" ~k:2 t ~src:0 ~dst:6 ~steps:4 ~stopped:true ~paths;
  check_arrivals "total 3" ~stop:3 t ~src:0 ~dst:6 ~steps:4 ~stopped:true ~paths

(* --- Enumeration pins on the Fig. 4 study ---

   The kernel's exact output on real workloads: FNV digests of the
   encoded results for messages of the Fig. 4 study on infocom06_am
   (the study's own sampler: uniform source, distinct uniform
   destination, creation time in the first two thirds of the trace).
   Any change to the DP's data structures must leave every byte, step
   count and stop flag as pinned here. *)

let fig4_pins =
  lazy
    (let dataset = Core.Dataset.infocom06_am in
     let trace = Core.Dataset.generate dataset in
     let rng =
       Rng.create
         ~seed:
           (Int64.logxor Core.Experiments.default_scale.Core.Experiments.rng_seed
              dataset.Core.Dataset.seed)
         ()
     in
     let n = Trace.n_nodes trace in
     let messages =
       Array.init 6 (fun _ ->
           let src = Rng.int rng n in
           let dst =
             let r = Rng.int rng (n - 1) in
             if r >= src then r + 1 else r
           in
           (src, dst, Rng.float rng (Trace.horizon trace *. 2. /. 3.)))
     in
     (Snapshot.of_trace trace, messages))

let check_pin name config i ~steps ~stopped ~arrivals ~digest =
  let snap, messages = Lazy.force fig4_pins in
  let src, dst, t_create = messages.(i) in
  let r = Enumerate.run ~config snap ~src ~dst ~t_create in
  Alcotest.(check int) (name ^ " steps") steps r.Enumerate.steps_processed;
  Alcotest.(check bool) (name ^ " stopped early") stopped r.Enumerate.stopped_early;
  Alcotest.(check int) (name ^ " arrivals") arrivals (Array.length r.Enumerate.arrivals);
  Alcotest.(check string) (name ^ " digest") digest
    (Core.Fnv.to_hex (Core.Fnv.of_string (Core.Store_codec.encode_enumeration r)))

let fig4_config = { Enumerate.k = 2000; max_hops = None; stop_at_total = Some 2000; exhaustive = false }

(* The three cheapest messages of the psnbench enum-fig4 panel. *)
let test_pin_fig4 () =
  check_pin "msg 2" fig4_config 2 ~steps:27 ~stopped:true ~arrivals:2000 ~digest:"ebb5554cb9d304c2";
  check_pin "msg 3" fig4_config 3 ~steps:120 ~stopped:true ~arrivals:2000 ~digest:"cceee730b7c3405b";
  check_pin "msg 5" fig4_config 5 ~steps:114 ~stopped:true ~arrivals:2000 ~digest:"b486567752f301b0"

let test_pin_exhaustive () =
  check_pin "exhaustive k=200"
    { fig4_config with Enumerate.k = 200; stop_at_total = Some 200; exhaustive = true }
    3 ~steps:120 ~stopped:true ~arrivals:200 ~digest:"a4ac9ffef8f3ce8f"

(* The fig4 panel's messages in the exhaustive DP at the same k, the
   pins any exact-mode kernel change must keep. *)
let test_pin_exhaustive_fig4 () =
  let config = { fig4_config with Enumerate.exhaustive = true } in
  check_pin "exhaustive msg 2" config 2 ~steps:27 ~stopped:true ~arrivals:2000
    ~digest:"1d7aeba66b5c7153";
  check_pin "exhaustive msg 3" config 3 ~steps:120 ~stopped:true ~arrivals:2000
    ~digest:"461506b9d6415e6a";
  check_pin "exhaustive msg 5" config 5 ~steps:114 ~stopped:true ~arrivals:2000
    ~digest:"f6cf57c29ee94e1e"

(* The hop cap leaves this message short of its budget at trace end. *)
let test_pin_max_hops () =
  check_pin "max_hops 4" { fig4_config with Enumerate.max_hops = Some 4 } 5 ~steps:411 ~stopped:false
    ~arrivals:1974 ~digest:"188394ead0fbd371"

(* The shape serve's [paths] queries use. *)
let test_pin_serve_shape () =
  check_pin "serve k=64"
    { Enumerate.k = 64; max_hops = None; stop_at_total = None; exhaustive = false }
    2 ~steps:27 ~stopped:true ~arrivals:64 ~digest:"0e2f6a2005c0f285"

(* --- Enumeration properties on random traces --- *)

(* [nodes], [contacts] and [duration] (seconds) are (least, spread)
   pairs: each is uniform in [least, least + spread). *)
let random_trace ?(nodes = (6, 8)) ?(contacts = (30, 60)) ?(duration = (5., 60.)) rng =
  let n_nodes = fst nodes + Rng.int rng (snd nodes) in
  let n_contacts = fst contacts + Rng.int rng (snd contacts) in
  let contacts =
    List.init n_contacts (fun _ ->
        let a = Rng.int rng n_nodes in
        let b = (a + 1 + Rng.int rng (n_nodes - 1)) mod n_nodes in
        let s = Rng.float rng 500. in
        Contact.make ~a ~b ~t_start:s ~t_end:(s +. fst duration +. Rng.float rng (snd duration)))
  in
  Trace.create ~n_nodes ~horizon:600. contacts

(* Contacts lasting 10 to 40 steps, so the destination's contacts
   persist across the kills of several steps. *)
let long_contact_trace rng = random_trace ~contacts:(15, 25) ~duration:(100., 300.) rng

let check_valid_and_feasible ~seed ~exhaustive gen =
  let rng = Rng.create ~seed () in
  for _ = 1 to 25 do
    let trace = gen rng in
    let snap = Snapshot.of_trace trace in
    let n = Trace.n_nodes trace in
    let src = Rng.int rng n in
    let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
    let result = run ~k:50 ~stop:300 ~exhaustive snap ~src ~dst ~t_create:(Rng.float rng 200.) in
    Array.iter
      (fun (a : Enumerate.arrival) ->
        let p = a.Enumerate.path in
        if not (Path.is_valid snap p ~dst) then
          Alcotest.failf "invalid path %a" (fun ppf -> Path.pp ppf) p;
        if not (Path.is_feasible snap p) then
          Alcotest.failf "infeasible path %a" (fun ppf -> Path.pp ppf) p;
        let nodes = Path.nodes p in
        if List.hd nodes <> src then Alcotest.fail "wrong source";
        if List.nth nodes (List.length nodes - 1) <> dst then Alcotest.fail "wrong destination")
      result.Enumerate.arrivals
  done

let test_property_arrivals_valid_and_feasible () =
  check_valid_and_feasible ~seed:101L ~exhaustive:false random_trace;
  List.iter
    (fun exhaustive -> check_valid_and_feasible ~seed:111L ~exhaustive long_contact_trace)
    modes

let test_property_first_arrival_matches_flood () =
  let rng = Rng.create ~seed:202L () in
  for _ = 1 to 40 do
    let trace = random_trace rng in
    let snap = Snapshot.of_trace trace in
    let n = Trace.n_nodes trace in
    let src = Rng.int rng n in
    let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
    let t_create = Rng.float rng 200. in
    let flood = Reachability.flood snap ~src ~t_create in
    let result = run ~k:50 ~stop:50 snap ~src ~dst ~t_create in
    match (Reachability.arrival_time flood dst, Enumerate.first_arrival result) with
    | None, None -> ()
    | Some tf, Some a ->
      if not (Float.equal tf a.Enumerate.time) then
        Alcotest.failf "flood %f vs enumerate %f" tf a.Enumerate.time
    | Some tf, None -> Alcotest.failf "flood delivers at %f, enumeration found nothing" tf
    | None, Some a -> Alcotest.failf "enumeration delivers at %f, flood found nothing" a.Enumerate.time
  done

let test_property_arrivals_chronological () =
  let rng = Rng.create ~seed:303L () in
  for _ = 1 to 20 do
    let trace = random_trace rng in
    let snap = Snapshot.of_trace trace in
    let n = Trace.n_nodes trace in
    let src = Rng.int rng n in
    let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
    let result = run ~k:50 ~stop:300 snap ~src ~dst ~t_create:0. in
    let times = Enumerate.arrival_times result in
    for i = 1 to Array.length times - 1 do
      if times.(i) < times.(i - 1) then Alcotest.fail "arrivals not chronological"
    done
  done

(* The non-exhaustive mode must agree with the exhaustive algorithm on
   the first arrival exactly and may only undercount later arrivals. *)
let test_property_fast_mode_vs_exhaustive () =
  let rng = Rng.create ~seed:505L () in
  for _ = 1 to 20 do
    let trace = random_trace rng in
    let snap = Snapshot.of_trace trace in
    let n = Trace.n_nodes trace in
    let src = Rng.int rng n in
    let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
    let t_create = Rng.float rng 200. in
    let go exhaustive =
      Enumerate.run
        ~config:{ Enumerate.k = 40; max_hops = None; stop_at_total = Some 300; exhaustive }
        snap ~src ~dst ~t_create
    in
    let fast = go false and exact = go true in
    (match (Enumerate.first_arrival fast, Enumerate.first_arrival exact) with
    | None, None -> ()
    | Some a, Some b ->
      if not (Float.equal a.Enumerate.time b.Enumerate.time) then
        Alcotest.failf "first arrival differs: fast %.0f vs exact %.0f" a.Enumerate.time
          b.Enumerate.time
    | Some _, None -> Alcotest.fail "fast mode delivered where exact did not"
    | None, Some _ -> Alcotest.fail "fast mode missed the first arrival");
    if
      (not exact.Enumerate.stopped_early)
      && (not fast.Enumerate.stopped_early)
      && Array.length fast.Enumerate.arrivals > Array.length exact.Enumerate.arrivals
    then
      Alcotest.failf "fast mode overcounts: %d vs %d"
        (Array.length fast.Enumerate.arrivals)
        (Array.length exact.Enumerate.arrivals)
  done;
  (* At a k that never binds and with no total cap, nothing is trimmed,
     so fast mode's arrivals are a subset of the exhaustive DP's: same
     step, same path. The two counts still differ wherever a contact
     persists over several steps (ROADMAP item 2). *)
  let rng = Rng.create ~seed:606L () in
  let key (a : Enumerate.arrival) =
    ( a.Enumerate.step,
      List.map (fun (h : Path.hop) -> (h.Path.step, h.Path.node)) (Path.hops a.Enumerate.path) )
  in
  for _ = 1 to 200 do
    let trace = random_trace ~nodes:(6, 6) ~contacts:(30, 40) rng in
    let snap = Snapshot.of_trace trace in
    let n = Trace.n_nodes trace in
    let src = Rng.int rng n in
    let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
    let t_create = Rng.float rng 200. in
    let go exhaustive =
      Enumerate.run
        ~config:{ Enumerate.k = 100_000_000; max_hops = None; stop_at_total = None; exhaustive }
        snap ~src ~dst ~t_create
    in
    let fast = go false and exact = go true in
    let exact_keys = Hashtbl.create 64 in
    Array.iter (fun a -> Hashtbl.replace exact_keys (key a) ()) exact.Enumerate.arrivals;
    Array.iter
      (fun a ->
        if not (Hashtbl.mem exact_keys (key a)) then
          Alcotest.failf "fast arrival at step %d via %a is not an exhaustive arrival"
            a.Enumerate.step (fun ppf -> Path.pp ppf) a.Enumerate.path)
      fast.Enumerate.arrivals
  done

let check_paths_distinct ~seed ~exhaustive gen =
  let rng = Rng.create ~seed () in
  for _ = 1 to 15 do
    let trace = gen rng in
    let snap = Snapshot.of_trace trace in
    let n = Trace.n_nodes trace in
    let src = Rng.int rng n in
    let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
    let result = run ~k:30 ~stop:200 ~exhaustive snap ~src ~dst ~t_create:0. in
    let paths = Array.to_list result.Enumerate.arrivals |> List.map (fun a -> a.Enumerate.path) in
    let compare_hops (x : Path.hop) (y : Path.hop) =
      let c = Int.compare x.Path.step y.Path.step in
      if c <> 0 then c else Int.compare x.Path.node y.Path.node
    in
    let sorted =
      List.sort_uniq (fun a b -> List.compare compare_hops (Path.hops a) (Path.hops b)) paths
    in
    Alcotest.(check int) "all paths distinct" (List.length paths) (List.length sorted)
  done

let test_property_paths_distinct () =
  check_paths_distinct ~seed:404L ~exhaustive:false random_trace;
  List.iter (fun exhaustive -> check_paths_distinct ~seed:414L ~exhaustive long_contact_trace) modes

(* --- Explosion --- *)

let explosion_fixture () =
  (* Clique scenario producing a burst of arrivals. *)
  let contacts =
    List.concat_map
      (fun r ->
        [
          Contact.make ~a:0 ~b:r ~t_start:11. ~t_end:19.;
          Contact.make ~a:r ~b:6 ~t_start:31. ~t_end:39.;
        ])
      [ 1; 2; 3; 4; 5 ]
    @ [ Contact.make ~a:0 ~b:6 ~t_start:51. ~t_end:59. ]
  in
  let t = Trace.create ~n_nodes:7 ~horizon:80. contacts in
  run ~k:100 (Snapshot.of_trace t) ~src:0 ~dst:6 ~t_create:0.

let test_explosion_analyze () =
  let result = explosion_fixture () in
  let s = Explosion.analyze ~n_explosion:3 result in
  Alcotest.(check bool) "delivered" true s.Explosion.delivered;
  Alcotest.check feps "t1" 40. (Option.get s.Explosion.t1);
  Alcotest.check feps "optimal duration" 40. (Option.get s.Explosion.optimal_duration);
  Alcotest.check feps "tn" 40. (Option.get s.Explosion.tn);
  Alcotest.check feps "te zero (burst)" 0. (Option.get s.Explosion.te)

let test_explosion_not_reached () =
  let result = explosion_fixture () in
  let s = Explosion.analyze ~n_explosion:10_000 result in
  Alcotest.(check bool) "delivered" true s.Explosion.delivered;
  Alcotest.(check (option unit)) "no tn" None (Option.map ignore s.Explosion.tn);
  Alcotest.(check (option unit)) "no te" None (Option.map ignore s.Explosion.te)

let test_explosion_empty () =
  let t =
    Trace.create ~n_nodes:3 ~horizon:60. [ Contact.make ~a:0 ~b:1 ~t_start:11. ~t_end:19. ]
  in
  let result = run (Snapshot.of_trace t) ~src:0 ~dst:2 ~t_create:0. in
  let s = Explosion.analyze ~n_explosion:2000 result in
  Alcotest.(check bool) "not delivered" false s.Explosion.delivered;
  Alcotest.(check int) "no arrivals" 0 s.Explosion.n_arrivals

let () =
  Alcotest.run "psn_paths"
    [
      ( "path",
        [
          Alcotest.test_case "of_hops validation" `Quick test_path_of_hops_validation;
          Alcotest.test_case "accessors" `Quick test_path_accessors;
          Alcotest.test_case "loop freedom" `Quick test_loop_free;
          Alcotest.test_case "minimal progress" `Quick test_minimal_progress;
          Alcotest.test_case "first preference" `Quick test_first_preference;
          Alcotest.test_case "feasibility" `Quick test_feasibility;
        ] );
      ( "enumerate",
        [
          Alcotest.test_case "two-hop relay" `Quick test_enumerate_two_hop;
          Alcotest.test_case "parallel relays" `Quick test_enumerate_parallel_relays;
          Alcotest.test_case "first-preference pruning" `Quick test_enumerate_first_preference_pruning;
          Alcotest.test_case "same-step chain delivery" `Quick test_enumerate_same_step_chain_delivery;
          Alcotest.test_case "k-in-one-step stop" `Quick test_enumerate_k_stop;
          Alcotest.test_case "total-arrivals stop" `Quick test_enumerate_stop_at_total;
          Alcotest.test_case "no delivery" `Quick test_enumerate_no_delivery;
          Alcotest.test_case "errors" `Quick test_enumerate_errors;
          Alcotest.test_case "persisting contact" `Quick test_enumerate_persisting_contact;
          Alcotest.test_case "kill: persisting neighbour" `Quick
            test_enumerate_kill_persisting_neighbour;
          Alcotest.test_case "kill: new neighbour" `Quick test_enumerate_kill_new_neighbour;
          Alcotest.test_case "kill: after an idle step" `Quick test_enumerate_kill_after_idle_step;
          Alcotest.test_case "stop mid-step" `Quick test_enumerate_stop_mid_step;
        ] );
      ( "enumerate-pins",
        [
          Alcotest.test_case "fig4 panel, k=2000" `Slow test_pin_fig4;
          Alcotest.test_case "exhaustive, k=200" `Slow test_pin_exhaustive;
          Alcotest.test_case "exhaustive fig4 panel, k=2000" `Slow test_pin_exhaustive_fig4;
          Alcotest.test_case "max_hops 4" `Slow test_pin_max_hops;
          Alcotest.test_case "serve shape, k=64" `Slow test_pin_serve_shape;
        ] );
      ( "enumerate-properties",
        [
          Alcotest.test_case "arrivals valid and feasible" `Slow
            test_property_arrivals_valid_and_feasible;
          Alcotest.test_case "first arrival = flooding oracle" `Slow
            test_property_first_arrival_matches_flood;
          Alcotest.test_case "arrivals chronological" `Slow test_property_arrivals_chronological;
          Alcotest.test_case "paths distinct" `Slow test_property_paths_distinct;
          Alcotest.test_case "fast mode vs exhaustive" `Slow test_property_fast_mode_vs_exhaustive;
        ] );
      ( "explosion",
        [
          Alcotest.test_case "analyze" `Quick test_explosion_analyze;
          Alcotest.test_case "threshold not reached" `Quick test_explosion_not_reached;
          Alcotest.test_case "undelivered message" `Quick test_explosion_empty;
        ] );
    ]
