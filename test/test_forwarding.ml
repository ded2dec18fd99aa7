(* Tests for the psn_forwarding library: contact history, each
   algorithm's decision rule, MEED delay estimation, and the registry. *)

module Contact = Core.Contact
module Trace = Core.Trace
module Message = Core.Message
module Algorithm = Core.Algorithm
module Engine = Core.Engine
module History = Core.Contact_history
module Meed = Core.Meed
module Registry = Core.Registry

let feps = Alcotest.float 1e-9

let ctx algo trace ~time ~holder ~peer ~src ~dst =
  ignore trace;
  algo.Algorithm.should_forward
    { Algorithm.time; holder; peer; message = Message.make ~id:0 ~src ~dst ~t_create:0. }

(* --- Contact_history --- *)

let test_history_counts () =
  let h = History.create ~n:4 in
  History.observe h ~time:10. ~a:0 ~b:1;
  History.observe h ~time:20. ~a:1 ~b:2;
  History.observe h ~time:30. ~a:0 ~b:1;
  Alcotest.(check int) "pair count" 2 (History.pair_count h 0 1);
  Alcotest.(check int) "symmetric" 2 (History.pair_count h 1 0);
  Alcotest.(check int) "other pair" 1 (History.pair_count h 1 2);
  Alcotest.(check int) "total 1" 3 (History.total_count h 1);
  Alcotest.(check int) "total 3" 0 (History.total_count h 3);
  Alcotest.(check (option (float 1e-9))) "last encounter" (Some 30.) (History.last_encounter h 0 1);
  Alcotest.(check (option (float 1e-9))) "never met" None (History.last_encounter h 0 3)

let test_history_validation () =
  let h = History.create ~n:2 in
  Alcotest.check_raises "self" (Invalid_argument "Contact_history: self-contact") (fun () ->
      History.observe h ~time:0. ~a:1 ~b:1)

(* --- A tiny trace shared by algorithm tests --- *)

let tiny_trace () =
  Trace.create ~n_nodes:4 ~horizon:100.
    [
      Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:15.;
      Contact.make ~a:1 ~b:3 ~t_start:20. ~t_end:25.;
      Contact.make ~a:1 ~b:3 ~t_start:40. ~t_end:45.;
      Contact.make ~a:2 ~b:3 ~t_start:30. ~t_end:35.;
    ]

(* --- Epidemic / Direct --- *)

let test_epidemic_always_forwards () =
  let trace = tiny_trace () in
  let algo = Core.Epidemic.factory trace in
  Alcotest.(check bool) "forwards" true (ctx algo trace ~time:0. ~holder:0 ~peer:1 ~src:0 ~dst:3)

let test_direct_never_forwards () =
  let trace = tiny_trace () in
  let algo = Core.Direct.factory trace in
  Alcotest.(check bool) "refuses" false (ctx algo trace ~time:0. ~holder:0 ~peer:1 ~src:0 ~dst:3)

(* --- FRESH --- *)

let test_fresh_decision () =
  let trace = tiny_trace () in
  let algo = Core.Fresh.factory trace in
  (* teach it: node 1 met dst 3 at t=20; node 0 never did *)
  algo.Algorithm.observe_contact ~time:20. ~a:1 ~b:3;
  Alcotest.(check bool) "peer fresher" true (ctx algo trace ~time:21. ~holder:0 ~peer:1 ~src:0 ~dst:3);
  Alcotest.(check bool) "holder fresher" false
    (ctx algo trace ~time:21. ~holder:1 ~peer:0 ~src:0 ~dst:3);
  (* now node 0 meets 3 later: roles flip *)
  algo.Algorithm.observe_contact ~time:50. ~a:0 ~b:3;
  Alcotest.(check bool) "flip" true (ctx algo trace ~time:51. ~holder:1 ~peer:0 ~src:1 ~dst:3)

let test_fresh_neither_met () =
  let trace = tiny_trace () in
  let algo = Core.Fresh.factory trace in
  Alcotest.(check bool) "no info, no forward" false
    (ctx algo trace ~time:5. ~holder:0 ~peer:1 ~src:0 ~dst:3)

(* --- Greedy --- *)

let test_greedy_counts_destination_meetings () =
  let trace = tiny_trace () in
  let algo = Core.Greedy.factory trace in
  algo.Algorithm.observe_contact ~time:20. ~a:1 ~b:3;
  algo.Algorithm.observe_contact ~time:40. ~a:1 ~b:3;
  algo.Algorithm.observe_contact ~time:30. ~a:2 ~b:3;
  Alcotest.(check bool) "1 beats 2 (2 vs 1 meetings)" true
    (ctx algo trace ~time:60. ~holder:2 ~peer:1 ~src:2 ~dst:3);
  Alcotest.(check bool) "2 does not beat 1" false
    (ctx algo trace ~time:60. ~holder:1 ~peer:2 ~src:1 ~dst:3)

(* --- Greedy Online / Total --- *)

let test_greedy_online_uses_observed_totals () =
  let trace = tiny_trace () in
  let algo = Core.Greedy_online.factory trace in
  algo.Algorithm.observe_contact ~time:10. ~a:0 ~b:1;
  algo.Algorithm.observe_contact ~time:20. ~a:1 ~b:3;
  (* totals so far: n1 = 2, n0 = 1, n2 = 0 *)
  Alcotest.(check bool) "climb to busier node" true
    (ctx algo trace ~time:25. ~holder:2 ~peer:1 ~src:2 ~dst:0);
  Alcotest.(check bool) "not downhill" false
    (ctx algo trace ~time:25. ~holder:1 ~peer:2 ~src:1 ~dst:0)

let test_greedy_total_uses_full_trace () =
  let trace = tiny_trace () in
  (* whole-trace totals: n0=1, n1=3, n2=1, n3=3 *)
  let algo = Core.Greedy_total.factory trace in
  Alcotest.(check bool) "0 -> 1 uphill even before any contact" true
    (ctx algo trace ~time:0. ~holder:0 ~peer:1 ~src:0 ~dst:2);
  Alcotest.(check bool) "1 -> 0 downhill" false
    (ctx algo trace ~time:0. ~holder:1 ~peer:0 ~src:1 ~dst:2)

(* --- MEED / Dynamic Programming --- *)

let test_meed_pair_delay_formula () =
  (* One pair meeting at t = 40 in a window of 100:
     gaps 40 and 60 -> (40^2 + 60^2) / 200 = 26. *)
  let trace =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:40. ~t_end:50. ]
  in
  let d = Meed.delay_matrix trace in
  Alcotest.check feps "expected delay" 26. d.(0).(1);
  Alcotest.check feps "diagonal" 0. d.(0).(0)

let test_meed_more_meetings_lower_delay () =
  let trace1 =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:50. ~t_end:51. ]
  in
  let trace4 =
    Trace.create ~n_nodes:2 ~horizon:100.
      (List.map
         (fun s -> Contact.make ~a:0 ~b:1 ~t_start:s ~t_end:(s +. 1.))
         [ 20.; 40.; 60.; 80. ])
  in
  Alcotest.(check bool) "frequent meetings mean lower expected delay" true
    ((Meed.delay_matrix trace4).(0).(1) < (Meed.delay_matrix trace1).(0).(1))

let test_meed_never_meet () =
  let trace =
    Trace.create ~n_nodes:3 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:40. ~t_end:50. ]
  in
  Alcotest.(check bool) "infinite" true ((Meed.delay_matrix trace).(0).(2) = Float.infinity)

let test_meed_routing_relays () =
  (* 0 never meets 2 directly, but meets 1 often and 1 meets 2 often:
     the routed cost must be finite and the matrix symmetric here. *)
  let contacts =
    List.concat_map
      (fun s ->
        [
          Contact.make ~a:0 ~b:1 ~t_start:s ~t_end:(s +. 1.);
          Contact.make ~a:1 ~b:2 ~t_start:(s +. 5.) ~t_end:(s +. 6.);
        ])
      [ 10.; 30.; 50.; 70.; 90. ]
  in
  let trace = Trace.create ~n_nodes:3 ~horizon:110. contacts in
  let costs = Meed.routing_costs trace in
  Alcotest.(check bool) "relayed cost finite" true (Float.is_finite costs.(0).(2));
  Alcotest.(check bool) "relay no worse than direct" true
    (costs.(0).(2) <= (Meed.delay_matrix trace).(0).(2))

let test_dynprog_decision () =
  let contacts =
    List.concat_map
      (fun s ->
        [
          Contact.make ~a:0 ~b:1 ~t_start:s ~t_end:(s +. 1.);
          Contact.make ~a:1 ~b:2 ~t_start:(s +. 5.) ~t_end:(s +. 6.);
        ])
      [ 10.; 30.; 50.; 70.; 90. ]
  in
  let trace = Trace.create ~n_nodes:3 ~horizon:110. contacts in
  let algo = Core.Dynprog.factory trace in
  Alcotest.(check bool) "0 forwards to 1 toward 2" true
    (ctx algo trace ~time:0. ~holder:0 ~peer:1 ~src:0 ~dst:2);
  Alcotest.(check bool) "1 keeps rather than return to 0" false
    (ctx algo trace ~time:0. ~holder:1 ~peer:0 ~src:0 ~dst:2)

(* --- Randomized --- *)

let test_randomized_extremes () =
  let trace = tiny_trace () in
  let always = Core.Randomized.factory ~p:1. () trace in
  let never = Core.Randomized.factory ~p:0. () trace in
  for _ = 1 to 50 do
    Alcotest.(check bool) "p=1" true (ctx always trace ~time:0. ~holder:0 ~peer:1 ~src:0 ~dst:3);
    Alcotest.(check bool) "p=0" false (ctx never trace ~time:0. ~holder:0 ~peer:1 ~src:0 ~dst:3)
  done

(* --- Spray and Wait --- *)

let test_spray_wait_budget () =
  (* Star: source meets 5 relays; with L=4 only 2 hand-offs can happen
     (4 -> give 2 -> give 1 -> budget 1 = wait). *)
  let contacts =
    List.mapi
      (fun i r ->
        let s = 10. +. (20. *. float_of_int i) in
        Contact.make ~a:0 ~b:r ~t_start:s ~t_end:(s +. 5.))
      [ 1; 2; 3; 4; 5 ]
  in
  let trace = Trace.create ~n_nodes:7 ~horizon:200. contacts in
  let algo = Core.Spray_wait.factory ~l:4 () trace in
  let outcome =
    Engine.run ~trace ~messages:[ Message.make ~id:0 ~src:0 ~dst:6 ~t_create:0. ] algo
  in
  Alcotest.(check int) "copies bounded by L-2 splits" 2 outcome.Engine.copies

let test_spray_wait_single_copy_waits () =
  let trace = tiny_trace () in
  let algo = Core.Spray_wait.factory ~l:1 () trace in
  let m = Message.make ~id:0 ~src:0 ~dst:3 ~t_create:0. in
  algo.Algorithm.on_create m;
  Alcotest.(check bool) "L=1 never sprays" false
    (algo.Algorithm.should_forward { Algorithm.time = 12.; holder = 0; peer = 1; message = m })

(* --- Two-Hop --- *)

let test_two_hop_source_only () =
  let trace = tiny_trace () in
  let algo = Core.Two_hop.factory trace in
  Alcotest.(check bool) "source sprays" true
    (algo.Algorithm.should_forward
       { Algorithm.time = 0.; holder = 0; peer = 1; message = Message.make ~id:0 ~src:0 ~dst:3 ~t_create:0. });
  Alcotest.(check bool) "relay holds" false
    (algo.Algorithm.should_forward
       { Algorithm.time = 0.; holder = 1; peer = 2; message = Message.make ~id:0 ~src:0 ~dst:3 ~t_create:0. })

let test_two_hop_paths_bounded () =
  (* Chain 0-1, 1-2, 2-3 over time: epidemic reaches 3, two-hop cannot
     (it would need three hops). *)
  let trace =
    Trace.create ~n_nodes:4 ~horizon:400.
      [
        Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:20.;
        Contact.make ~a:1 ~b:2 ~t_start:100. ~t_end:110.;
        Contact.make ~a:2 ~b:3 ~t_start:200. ~t_end:210.;
      ]
  in
  let m = Message.make ~id:0 ~src:0 ~dst:3 ~t_create:0. in
  let flood = Engine.run ~trace ~messages:[ m ] (Core.Epidemic.factory trace) in
  Alcotest.(check bool) "epidemic spans three hops" true
    (flood.Engine.records.(0).Engine.delivered <> None);
  let two = Engine.run ~trace ~messages:[ m ] (Core.Two_hop.factory trace) in
  Alcotest.(check (option (float 1e-9))) "two-hop cannot" None
    two.Engine.records.(0).Engine.delivered

(* --- Delegation --- *)

let test_delegation_raises_threshold () =
  let trace = tiny_trace () in
  let algo = Core.Delegation.factory () trace in
  let m = Message.make ~id:0 ~src:0 ~dst:3 ~t_create:0. in
  algo.Algorithm.on_create m;
  (* teach rates: node 1 has 2 contacts, node 2 has 1 *)
  algo.Algorithm.observe_contact ~time:10. ~a:1 ~b:2;
  algo.Algorithm.observe_contact ~time:20. ~a:1 ~b:3;
  let ctx1 = { Algorithm.time = 21.; holder = 0; peer = 1; message = m } in
  Alcotest.(check bool) "forwards to better node" true (algo.Algorithm.should_forward ctx1);
  algo.Algorithm.on_forward ctx1;
  (* after delegating to quality 3 (node 1 now has 3 contacts observed?
     at least its count at forward time), an equal-or-worse peer is
     refused by the raised threshold *)
  let ctx2 = { Algorithm.time = 22.; holder = 0; peer = 2; message = m } in
  Alcotest.(check bool) "threshold raised, worse peer refused" false
    (algo.Algorithm.should_forward ctx2)

let test_delegation_cheaper_than_epidemic () =
  let trace =
    Core.Generator.generate
      ~rng:(Core.Rng.create ~seed:8L ())
      {
        Core.Generator.default with
        Core.Generator.n_mobile = 25;
        n_stationary = 5;
        horizon = 2400.;
        mean_contacts = 40.;
      }
  in
  let messages =
    Core.Workload.fixed_count
      ~rng:(Core.Rng.create ~seed:9L ())
      { Core.Workload.rate = 0.1; t_start = 0.; t_end = 1600.; n_nodes = 30 }
      ~count:40
  in
  let copies factory = (Engine.run ~trace ~messages (factory trace)).Engine.copies in
  Alcotest.(check bool) "delegation uses fewer copies" true
    (copies (Core.Delegation.factory ()) < copies Core.Epidemic.factory)

(* --- Community / BubbleRap --- *)

(* Two clear communities: {0,1,2} heavily interconnected, {3,4,5}
   likewise, one thin bridge 2-3. *)
let community_trace () =
  let dense group base =
    List.concat_map
      (fun (a, b) ->
        List.map
          (fun k ->
            let s = base +. (30. *. k) in
            Contact.make ~a ~b ~t_start:s ~t_end:(s +. 20.))
          [ 0.; 1.; 2. ])
      group
  in
  let contacts =
    dense [ (0, 1); (1, 2); (0, 2) ] 10.
    (* the second community is active both before and after the bridge *)
    @ dense [ (3, 4); (4, 5); (3, 5) ] 15.
    @ dense [ (3, 4); (4, 5); (3, 5) ] 215.
    @ [ Contact.make ~a:2 ~b:3 ~t_start:200. ~t_end:202. ]
  in
  Trace.create ~n_nodes:6 ~horizon:320. contacts

let test_community_detection () =
  let trace = community_trace () in
  let c = Core.Community.detect trace in
  Alcotest.(check bool) "0,1,2 together" true
    (Core.Community.same_community c 0 1 && Core.Community.same_community c 1 2);
  Alcotest.(check bool) "3,4,5 together" true
    (Core.Community.same_community c 3 4 && Core.Community.same_community c 4 5);
  Alcotest.(check bool) "groups separated" false (Core.Community.same_community c 0 3);
  Alcotest.(check int) "two communities" 2 (Core.Community.n_communities c);
  Alcotest.(check bool) "members listed" true
    (List.exists
       (fun label -> List.equal Int.equal (Core.Community.members c label) [ 0; 1; 2 ])
       (List.init (Core.Community.n_communities c) Fun.id))

let test_community_min_weight_filters_bridge () =
  let trace = community_trace () in
  (* The bridge has 2 s of contact; a 60 s threshold must ignore it
     while keeping the groups (each pair has 60 s). *)
  let c = Core.Community.detect ~min_weight:60. trace in
  Alcotest.(check bool) "still two groups" false (Core.Community.same_community c 0 3)

let test_community_modularity_positive () =
  let trace = community_trace () in
  let c = Core.Community.detect trace in
  let q = Core.Community.modularity c trace in
  Alcotest.(check bool) (Printf.sprintf "modularity %.3f > 0.3" q) true (q > 0.3)

let test_community_singletons () =
  let trace =
    Trace.create ~n_nodes:4 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:1. ~t_end:50. ]
  in
  let c = Core.Community.detect trace in
  (* 0 and 1 merge; 2 and 3 are isolated singletons *)
  Alcotest.(check int) "three communities" 3 (Core.Community.n_communities c);
  Alcotest.(check bool) "isolates apart" false (Core.Community.same_community c 2 3)

let test_bubble_rap_phases () =
  let trace = community_trace () in
  let algo = Core.Bubble_rap.factory ~min_weight:60. () trace in
  let m = Message.make ~id:0 ~src:0 ~dst:5 ~t_create:0. in
  (* Global phase: node 2 carries the bridge contact, so it outranks 0
     globally; holder 0 forwards to it. *)
  Alcotest.(check bool) "global climb" true
    (algo.Algorithm.should_forward { Algorithm.time = 0.; holder = 0; peer = 2; message = m });
  (* Entering the destination community is always accepted. *)
  Alcotest.(check bool) "enter destination community" true
    (algo.Algorithm.should_forward { Algorithm.time = 0.; holder = 2; peer = 3; message = m });
  (* Once inside, never leave: a member refuses to hand back outside. *)
  Alcotest.(check bool) "never leave community" false
    (algo.Algorithm.should_forward { Algorithm.time = 0.; holder = 3; peer = 2; message = m })

let test_bubble_rap_end_to_end () =
  let trace = community_trace () in
  let outcome =
    Engine.run ~trace
      ~messages:[ Message.make ~id:0 ~src:0 ~dst:5 ~t_create:0. ]
      (Core.Bubble_rap.factory ~min_weight:60. () trace)
  in
  Alcotest.(check bool) "delivered across communities" true
    (outcome.Engine.records.(0).Engine.delivered <> None)

(* --- PRoPHET --- *)

let test_prophet_encounter_raises_predictability () =
  let trace = tiny_trace () in
  let algo = Core.Prophet.factory () trace in
  (* 1 meets 3; then 1's predictability for 3 beats 0's *)
  algo.Algorithm.observe_contact ~time:10. ~a:1 ~b:3;
  Alcotest.(check bool) "forward to the acquainted node" true
    (ctx algo trace ~time:11. ~holder:0 ~peer:1 ~src:0 ~dst:3)

let test_prophet_aging () =
  let trace = tiny_trace () in
  let algo = Core.Prophet.factory () trace in
  algo.Algorithm.observe_contact ~time:10. ~a:1 ~b:3;
  (* node 2 meets 3 much later; by then node 1's P has aged away *)
  algo.Algorithm.observe_contact ~time:5000. ~a:2 ~b:3;
  Alcotest.(check bool) "recent meeting beats aged one" true
    (ctx algo trace ~time:5001. ~holder:1 ~peer:2 ~src:1 ~dst:3)

let test_prophet_transitivity () =
  let trace = tiny_trace () in
  let algo = Core.Prophet.factory () trace in
  algo.Algorithm.observe_contact ~time:10. ~a:1 ~b:3;
  algo.Algorithm.observe_contact ~time:12. ~a:2 ~b:1;
  (* 2 learned about 3 through 1; node 0 knows nothing *)
  Alcotest.(check bool) "transitive knowledge" true
    (ctx algo trace ~time:13. ~holder:0 ~peer:2 ~src:0 ~dst:3)

let test_prophet_validation () =
  Alcotest.check_raises "gamma zero" (Invalid_argument "Prophet: gamma must be in (0, 1]")
    (fun () ->
      let (_ : Algorithm.factory) =
        Core.Prophet.factory ~params:{ Core.Prophet.default_params with gamma = 0. } ()
      in
      ())

(* --- Registry --- *)

let test_registry_contents () =
  Alcotest.(check int) "six paper algorithms" 6 (List.length Registry.paper_six);
  Alcotest.(check bool) "all flagged in_paper" true
    (List.for_all (fun e -> e.Registry.in_paper) Registry.paper_six);
  Alcotest.(check bool) "extensions not in paper" true
    (List.for_all (fun e -> not e.Registry.in_paper) Registry.extensions);
  Alcotest.(check int) "fourteen total" 14 (List.length Registry.all)

let test_registry_find () =
  (match Registry.find "greedy-total" with
  | Ok e -> Alcotest.(check string) "label" "Greedy Total" e.Registry.label
  | Error msg -> Alcotest.failf "find: %s" msg);
  match Registry.find "bogus" with
  | Ok _ -> Alcotest.fail "found bogus"
  | Error msg -> Alcotest.(check bool) "lists names" true (String.length msg > 30)

(* Every algorithm must run end-to-end without error and deliver no more
   than epidemic. *)
let test_all_algorithms_bounded_by_epidemic () =
  let trace =
    Core.Generator.generate
      ~rng:(Core.Rng.create ~seed:5L ())
      {
        Core.Generator.default with
        Core.Generator.n_mobile = 25;
        n_stationary = 5;
        horizon = 2400.;
        mean_contacts = 40.;
      }
  in
  let messages =
    Core.Workload.fixed_count
      ~rng:(Core.Rng.create ~seed:6L ())
      { Core.Workload.rate = 0.1; t_start = 0.; t_end = 1600.; n_nodes = 30 }
      ~count:60
  in
  let delivered factory =
    let outcome = Engine.run ~trace ~messages (factory trace) in
    (Core.Metrics.of_outcome outcome).Core.Metrics.delivered
  in
  let epidemic_delivered = delivered Core.Epidemic.factory in
  List.iter
    (fun (e : Registry.entry) ->
      let d = delivered e.Registry.factory in
      if d > epidemic_delivered then
        Alcotest.failf "%s delivered %d > epidemic %d" e.Registry.label d epidemic_delivered)
    Registry.all

let () =
  Alcotest.run "psn_forwarding"
    [
      ( "history",
        [
          Alcotest.test_case "counts" `Quick test_history_counts;
          Alcotest.test_case "validation" `Quick test_history_validation;
        ] );
      ( "simple",
        [
          Alcotest.test_case "epidemic forwards" `Quick test_epidemic_always_forwards;
          Alcotest.test_case "direct refuses" `Quick test_direct_never_forwards;
          Alcotest.test_case "randomized extremes" `Quick test_randomized_extremes;
        ] );
      ( "fresh",
        [
          Alcotest.test_case "recency decision" `Quick test_fresh_decision;
          Alcotest.test_case "neither met" `Quick test_fresh_neither_met;
        ] );
      ( "greedy",
        [
          Alcotest.test_case "destination meetings" `Quick test_greedy_counts_destination_meetings;
          Alcotest.test_case "online totals" `Quick test_greedy_online_uses_observed_totals;
          Alcotest.test_case "oracle totals" `Quick test_greedy_total_uses_full_trace;
        ] );
      ( "meed",
        [
          Alcotest.test_case "pair delay formula" `Quick test_meed_pair_delay_formula;
          Alcotest.test_case "frequency lowers delay" `Quick test_meed_more_meetings_lower_delay;
          Alcotest.test_case "never meet" `Quick test_meed_never_meet;
          Alcotest.test_case "routing relays" `Quick test_meed_routing_relays;
          Alcotest.test_case "dynprog decision" `Quick test_dynprog_decision;
        ] );
      ( "spray-wait",
        [
          Alcotest.test_case "token budget" `Quick test_spray_wait_budget;
          Alcotest.test_case "single copy waits" `Quick test_spray_wait_single_copy_waits;
        ] );
      ( "two-hop",
        [
          Alcotest.test_case "source only" `Quick test_two_hop_source_only;
          Alcotest.test_case "paths bounded" `Quick test_two_hop_paths_bounded;
        ] );
      ( "delegation",
        [
          Alcotest.test_case "raises threshold" `Quick test_delegation_raises_threshold;
          Alcotest.test_case "cheaper than epidemic" `Quick test_delegation_cheaper_than_epidemic;
        ] );
      ( "community",
        [
          Alcotest.test_case "detection" `Quick test_community_detection;
          Alcotest.test_case "min weight" `Quick test_community_min_weight_filters_bridge;
          Alcotest.test_case "modularity" `Quick test_community_modularity_positive;
          Alcotest.test_case "singletons" `Quick test_community_singletons;
          Alcotest.test_case "bubble-rap phases" `Quick test_bubble_rap_phases;
          Alcotest.test_case "bubble-rap end to end" `Quick test_bubble_rap_end_to_end;
        ] );
      ( "prophet",
        [
          Alcotest.test_case "encounter raises P" `Quick test_prophet_encounter_raises_predictability;
          Alcotest.test_case "aging" `Quick test_prophet_aging;
          Alcotest.test_case "transitivity" `Quick test_prophet_transitivity;
          Alcotest.test_case "validation" `Quick test_prophet_validation;
        ] );
      ( "registry",
        [
          Alcotest.test_case "contents" `Quick test_registry_contents;
          Alcotest.test_case "find" `Quick test_registry_find;
          Alcotest.test_case "bounded by epidemic" `Slow test_all_algorithms_bounded_by_epidemic;
        ] );
    ]
