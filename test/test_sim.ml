(* Tests for the psn_sim library: workload generation, the event-driven
   engine's exchange/cascade semantics, metrics, and the multi-seed
   runner. *)

module Contact = Core.Contact
module Trace = Core.Trace
module Message = Core.Message
module Workload = Core.Workload
module Algorithm = Core.Algorithm
module Engine = Core.Engine
module Metrics = Core.Metrics
module Runner = Core.Runner
module Rng = Core.Rng
module Faults = Core.Faults

let feps = Alcotest.float 1e-9

let epidemic = Algorithm.stateless ~name:"Epidemic" (fun _ -> true)
let never = Algorithm.stateless ~name:"Never" (fun _ -> false)

let msg ?(id = 0) ~src ~dst t_create = Message.make ~id ~src ~dst ~t_create

(* --- Message / Workload --- *)

let test_message_validation () =
  Alcotest.check_raises "src=dst" (Invalid_argument "Message.make: src = dst") (fun () ->
      ignore (msg ~src:1 ~dst:1 0.))

let test_workload_poisson () =
  let spec = { Workload.rate = 0.5; t_start = 0.; t_end = 2000.; n_nodes = 20 } in
  let msgs = Workload.generate ~rng:(Rng.create ~seed:1L ()) spec in
  let n = List.length msgs in
  (* ~1000 expected; allow generous slack *)
  Alcotest.(check bool) (Printf.sprintf "count %d near 1000" n) true (n > 850 && n < 1150);
  let rec sorted = function
    | (a : Message.t) :: (b :: _ as rest) -> a.Message.t_create <= b.Message.t_create && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (sorted msgs);
  List.iteri (fun i (m : Message.t) -> Alcotest.(check int) "dense ids" i m.Message.id) msgs;
  List.iter
    (fun (m : Message.t) ->
      if m.Message.src = m.Message.dst then Alcotest.fail "self message";
      if m.Message.t_create < 0. || m.Message.t_create >= 2000. then
        Alcotest.fail "creation outside window")
    msgs

let test_workload_paper_spec () =
  let spec = Workload.paper_spec ~n_nodes:98 in
  Alcotest.check feps "rate" 0.25 spec.Workload.rate;
  Alcotest.check feps "window" 7200. spec.Workload.t_end

let test_workload_fixed_count () =
  let spec = { Workload.rate = 0.25; t_start = 100.; t_end = 200.; n_nodes = 5 } in
  let msgs = Workload.fixed_count ~rng:(Rng.create ~seed:2L ()) spec ~count:17 in
  Alcotest.(check int) "count" 17 (List.length msgs);
  List.iter
    (fun (m : Message.t) ->
      if m.Message.t_create < 100. || m.Message.t_create >= 200. then Alcotest.fail "outside window")
    msgs

let test_workload_validation () =
  match Workload.validate { Workload.rate = 0.; t_start = 0.; t_end = 1.; n_nodes = 5 } with
  | Ok () -> Alcotest.fail "accepted zero rate"
  | Error _ -> ()

(* --- Engine semantics --- *)

let test_direct_delivery_at_contact_start () =
  (* Message exists before the contact; delivery at contact start. *)
  let trace =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:30. ~t_end:40. ]
  in
  let outcome = Engine.run ~trace ~messages:[ msg ~src:0 ~dst:1 10. ] never in
  Alcotest.(check (option (float 1e-9))) "delivered at 30" (Some 30.)
    outcome.Engine.records.(0).Engine.delivered;
  Alcotest.(check (option (float 1e-9))) "delay" (Some 20.) (Engine.delay outcome.Engine.records.(0))

let test_delivery_on_creation_mid_contact () =
  (* Contact already active when the message is created: instant delivery. *)
  let trace =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:60. ]
  in
  let outcome = Engine.run ~trace ~messages:[ msg ~src:0 ~dst:1 30. ] never in
  Alcotest.(check (option (float 1e-9))) "instant" (Some 30.)
    outcome.Engine.records.(0).Engine.delivered

let test_no_delivery_after_contact_ends () =
  let trace =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:20. ]
  in
  let outcome = Engine.run ~trace ~messages:[ msg ~src:0 ~dst:1 50. ] epidemic in
  Alcotest.(check (option (float 1e-9))) "undelivered" None
    outcome.Engine.records.(0).Engine.delivered

let test_relay_chain_over_time () =
  (* 0-1 then later 1-2: epidemic relays; Never does not. *)
  let trace =
    Trace.create ~n_nodes:3 ~horizon:100.
      [
        Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:20.;
        Contact.make ~a:1 ~b:2 ~t_start:50. ~t_end:60.;
      ]
  in
  let m = msg ~src:0 ~dst:2 0. in
  let flooded = Engine.run ~trace ~messages:[ m ] epidemic in
  Alcotest.(check (option (float 1e-9))) "epidemic relays" (Some 50.)
    flooded.Engine.records.(0).Engine.delivered;
  (* one relay transfer (0 -> 1) plus the final delivery transmission
     (1 -> 2): both cost a transmission, so both count *)
  Alcotest.(check int) "relay + delivery transmissions" 2 flooded.Engine.copies;
  let direct = Engine.run ~trace ~messages:[ m ] never in
  Alcotest.(check (option (float 1e-9))) "direct fails" None
    direct.Engine.records.(0).Engine.delivered

let test_cascade_through_active_contacts () =
  (* 0-1 and 1-2 both active when 0-1 starts: the copy cascades to 2
     within the same instant. *)
  let trace =
    Trace.create ~n_nodes:3 ~horizon:100.
      [
        Contact.make ~a:1 ~b:2 ~t_start:5. ~t_end:50.;
        Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:40.;
      ]
  in
  let outcome = Engine.run ~trace ~messages:[ msg ~src:0 ~dst:2 0. ] epidemic in
  Alcotest.(check (option (float 1e-9))) "cascaded" (Some 10.)
    outcome.Engine.records.(0).Engine.delivered

let test_cascade_on_creation () =
  (* Message created while 0-1 and 1-2 are active: immediate multi-hop. *)
  let trace =
    Trace.create ~n_nodes:3 ~horizon:100.
      [
        Contact.make ~a:0 ~b:1 ~t_start:5. ~t_end:50.;
        Contact.make ~a:1 ~b:2 ~t_start:6. ~t_end:50.;
      ]
  in
  let outcome = Engine.run ~trace ~messages:[ msg ~src:0 ~dst:2 20. ] epidemic in
  Alcotest.(check (option (float 1e-9))) "instant two-hop" (Some 20.)
    outcome.Engine.records.(0).Engine.delivered

let test_contact_end_blocks_exchange () =
  (* 1-2 ends before 0-1 begins: no cascade possible. *)
  let trace =
    Trace.create ~n_nodes:3 ~horizon:100.
      [
        Contact.make ~a:1 ~b:2 ~t_start:5. ~t_end:9.;
        Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:40.;
      ]
  in
  let outcome = Engine.run ~trace ~messages:[ msg ~src:0 ~dst:2 0. ] epidemic in
  Alcotest.(check (option (float 1e-9))) "no path" None outcome.Engine.records.(0).Engine.delivered

let test_minimal_progress_overrides_algorithm () =
  (* Never forwards, but a holder in contact with the destination still
     delivers (engine-enforced minimal progress). *)
  let trace =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:20. ]
  in
  let outcome = Engine.run ~trace ~messages:[ msg ~src:0 ~dst:1 0. ] never in
  Alcotest.(check bool) "delivered" true (outcome.Engine.records.(0).Engine.delivered <> None)

let test_engine_validation () =
  let trace =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:20. ]
  in
  Alcotest.check_raises "endpoint range"
    (Invalid_argument "Engine.run: message 0 destination n7 outside population of 2 nodes")
    (fun () -> ignore (Engine.run ~trace ~messages:[ msg ~src:0 ~dst:7 0. ] never));
  Alcotest.check_raises "source range"
    (Invalid_argument "Engine.run: message 0 source n9 outside population of 2 nodes")
    (fun () -> ignore (Engine.run ~trace ~messages:[ msg ~src:9 ~dst:1 0. ] never));
  Alcotest.check_raises "duplicate ids" (Invalid_argument "Engine.run: duplicate message id")
    (fun () ->
      ignore
        (Engine.run ~trace
           ~messages:[ msg ~id:0 ~src:0 ~dst:1 0.; msg ~id:0 ~src:1 ~dst:0 0. ]
           never))

let test_observe_contact_called () =
  let seen = ref [] in
  let spy =
    {
      (Algorithm.stateless ~name:"spy" (fun _ -> false)) with
      Algorithm.observe_contact = (fun ~time ~a ~b -> seen := (time, a, b) :: !seen);
    }
  in
  let trace =
    Trace.create ~n_nodes:3 ~horizon:100.
      [
        Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:20.;
        Contact.make ~a:1 ~b:2 ~t_start:30. ~t_end:40.;
      ]
  in
  ignore (Engine.run ~trace ~messages:[] spy);
  Alcotest.(check int) "two observations" 2 (List.length !seen)

(* Epidemic simulation is the continuous-time reference; the space-time
   flooding oracle discretises at 10 s, which can both delay it (the
   grid starts propagating one step after creation, contacts wholly
   inside the creation step are lost) and advance it (contacts disjoint
   in time but sharing a step chain as if concurrent). So individual
   deliveries may differ; the aggregate distribution must stay close. *)
let test_epidemic_matches_flood_oracle () =
  let rng = Rng.create ~seed:77L () in
  let agree = ref 0 and total = ref 0 and close = ref 0 and both = ref 0 in
  for _ = 1 to 40 do
    let n_nodes = 8 + Rng.int rng 6 in
    let contacts =
      List.init (40 + Rng.int rng 40) (fun _ ->
          let a = Rng.int rng n_nodes in
          let b = (a + 1 + Rng.int rng (n_nodes - 1)) mod n_nodes in
          let s = Rng.float rng 500. in
          Contact.make ~a ~b ~t_start:s ~t_end:(s +. 5. +. Rng.float rng 50.))
    in
    let trace = Trace.create ~n_nodes ~horizon:600. contacts in
    let src = Rng.int rng n_nodes in
    let dst = (src + 1 + Rng.int rng (n_nodes - 1)) mod n_nodes in
    let t_create = Rng.float rng 300. in
    let outcome = Engine.run ~trace ~messages:[ msg ~src ~dst t_create ] epidemic in
    let snap = Core.Snapshot.of_trace trace in
    let flood = Core.Reachability.flood snap ~src ~t_create in
    incr total;
    match (outcome.Engine.records.(0).Engine.delivered, Core.Reachability.arrival_time flood dst)
    with
    | None, None -> incr agree
    | Some sim, Some oracle ->
      incr agree;
      incr both;
      if Float.abs (sim -. oracle) <= 20. then incr close
    | Some _, None | None, Some _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "deliverability agreement %d/%d" !agree !total)
    true
    (!agree >= !total * 9 / 10);
  Alcotest.(check bool)
    (Printf.sprintf "close deliveries %d/%d" !close !both)
    true
    (!both > 10 && !close >= !both * 8 / 10)

(* Overlapping duplicate contacts between one pair must not confuse the
   active-contact bookkeeping: the pair stays connected until the last
   interval ends. *)
let test_overlapping_same_pair_contacts () =
  let trace =
    Trace.create ~n_nodes:3 ~horizon:100.
      [
        Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:50.;
        Contact.make ~a:0 ~b:1 ~t_start:20. ~t_end:30.;
        (* 1-2 opens while 0-1's first interval is still live but after
           its duplicate closed: the relay must still cascade *)
        Contact.make ~a:1 ~b:2 ~t_start:40. ~t_end:45.;
      ]
  in
  let outcome = Engine.run ~trace ~messages:[ msg ~src:0 ~dst:2 35. ] epidemic in
  Alcotest.(check (option (float 1e-9))) "cascade despite duplicate" (Some 40.)
    outcome.Engine.records.(0).Engine.delivered

(* Replication monotonicity: with the same workload, forwarding more
   aggressively never delivers fewer messages. *)
let test_replication_monotone () =
  let trace =
    Core.Generator.generate
      ~rng:(Rng.create ~seed:55L ())
      {
        Core.Generator.default with
        Core.Generator.n_mobile = 25;
        n_stationary = 5;
        horizon = 2400.;
        mean_contacts = 40.;
      }
  in
  let messages =
    Workload.fixed_count
      ~rng:(Rng.create ~seed:56L ())
      { Workload.rate = 0.1; t_start = 0.; t_end = 1600.; n_nodes = 30 }
      ~count:60
  in
  let delivered p =
    let algo =
      if p >= 1. then epidemic
      else begin
        (* deterministic thinning: forward iff hash of (msg, holder,
           peer) falls below p — monotone in p by construction *)
        let accept ctx =
          let h =
            Hashtbl.hash
              ( ctx.Algorithm.message.Message.id,
                ctx.Algorithm.holder,
                ctx.Algorithm.peer )
          in
          float_of_int (h land 0xFFFF) /. 65536. < p
        in
        Algorithm.stateless ~name:"thinned" accept
      end
    in
    let outcome = Engine.run ~trace ~messages algo in
    (Metrics.of_outcome outcome).Metrics.delivered
  in
  let d25 = delivered 0.25 and d75 = delivered 0.75 and d100 = delivered 1. in
  Alcotest.(check bool)
    (Printf.sprintf "monotone %d <= %d <= %d" d25 d75 d100)
    true
    (d25 <= d75 && d75 <= d100)

(* --- TTL --- *)

let test_ttl_blocks_late_delivery () =
  let trace =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:50. ~t_end:60. ]
  in
  let m = msg ~src:0 ~dst:1 10. in
  let fresh = Engine.run ~ttl:100. ~trace ~messages:[ m ] epidemic in
  Alcotest.(check bool) "within ttl delivers" true
    (fresh.Engine.records.(0).Engine.delivered <> None);
  let stale = Engine.run ~ttl:20. ~trace ~messages:[ m ] epidemic in
  Alcotest.(check (option (float 1e-9))) "expired undelivered" None
    stale.Engine.records.(0).Engine.delivered

let test_ttl_blocks_relaying () =
  let trace =
    Trace.create ~n_nodes:3 ~horizon:200.
      [
        Contact.make ~a:0 ~b:1 ~t_start:50. ~t_end:60.;
        Contact.make ~a:1 ~b:2 ~t_start:100. ~t_end:110.;
      ]
  in
  let m = msg ~src:0 ~dst:2 0. in
  let ok = Engine.run ~ttl:150. ~trace ~messages:[ m ] epidemic in
  Alcotest.(check bool) "long ttl relays" true (ok.Engine.records.(0).Engine.delivered <> None);
  (* the relay contact at t=100 falls past the 80 s lifetime *)
  let cut = Engine.run ~ttl:80. ~trace ~messages:[ m ] epidemic in
  Alcotest.(check (option (float 1e-9))) "short ttl blocks the second hop" None
    cut.Engine.records.(0).Engine.delivered

let test_ttl_validation () =
  let trace =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:50. ~t_end:60. ]
  in
  Alcotest.check_raises "non-positive ttl"
    (Invalid_argument "Engine.run: ttl must be positive (got 0)") (fun () ->
      ignore (Engine.run ~ttl:0. ~trace ~messages:[] epidemic));
  Alcotest.check_raises "negative ttl"
    (Invalid_argument "Engine.run: ttl must be positive (got -5)") (fun () ->
      ignore (Engine.run ~ttl:(-5.) ~trace ~messages:[] epidemic))

(* --- Held lists --- *)

(* Never forwards, and logs every copy it is asked about as (time,
   holder, message id): the log is the order in which the engine
   offered its held copies. The first question at [bomb_at] raises. *)
let offer_log ?bomb_at log =
  {
    Algorithm.name = "Offers";
    observe_contact = (fun ~time:_ ~a:_ ~b:_ -> ());
    on_create = (fun _ -> ());
    should_forward =
      (fun { Algorithm.time; holder; message; _ } ->
        if bomb_at = Some time then invalid_arg "mid-exchange";
        log := (time, holder, message.Message.id) :: !log;
        false);
    on_forward = (fun _ -> ());
  }

(* Node 0 creates every message and is the only holder. Messages 0 and
   2 are delivered at t = 10 and t = 20, interleaved with the live
   messages 1 and 3, bound for node 5, which never meets node 0.
   Message 4 is created at t = 25, after message 0 has been dropped. *)
let held_fixture () =
  let trace =
    Trace.create ~n_nodes:6 ~horizon:100.
      [
        Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:11.;
        Contact.make ~a:0 ~b:2 ~t_start:20. ~t_end:21.;
        Contact.make ~a:0 ~b:3 ~t_start:30. ~t_end:31.;
        Contact.make ~a:0 ~b:4 ~t_start:40. ~t_end:41.;
      ]
  in
  let messages =
    [
      msg ~id:0 ~src:0 ~dst:1 0.;
      msg ~id:1 ~src:0 ~dst:5 1.;
      msg ~id:2 ~src:0 ~dst:2 2.;
      msg ~id:3 ~src:0 ~dst:5 3.;
      msg ~id:4 ~src:0 ~dst:5 25.;
    ]
  in
  (trace, messages)

let offers = Alcotest.(list (triple (float 0.) int int))

let test_held_live_order () =
  (* A delivered copy is handed over without a question, and from the
     next contact on it is not walked at all; the live copies are asked
     about in acquisition order, message 4 after them. A swap-remove
     drop would move message 3 ahead of message 1 at t = 20. *)
  let trace, messages = held_fixture () in
  let log = ref [] in
  let outcome = Engine.run ~trace ~messages (offer_log log) in
  Alcotest.check offers "offer order"
    [
      (10., 0, 1); (10., 0, 2); (10., 0, 3);
      (20., 0, 1); (20., 0, 3);
      (30., 0, 1); (30., 0, 3); (30., 0, 4);
      (40., 0, 1); (40., 0, 3); (40., 0, 4);
    ]
    (List.rev !log);
  Alcotest.(check (list (option (float 0.)))) "deliveries"
    [ Some 10.; None; Some 20.; None; None ]
    (Array.to_list (Array.map (fun r -> r.Engine.delivered) outcome.Engine.records))

let test_held_ttl_expiry () =
  (* Under a 15 s lifetime message 0 (born at 0) is dead after t = 15
     and message 1 (born at 10) after t = 25: each stops being offered,
     and the contact with the destination at t = 40 delivers neither.
     Without the lifetime both arrive there. *)
  let trace =
    Trace.create ~n_nodes:6 ~horizon:100.
      [
        Contact.make ~a:0 ~b:1 ~t_start:12. ~t_end:13.;
        Contact.make ~a:0 ~b:2 ~t_start:20. ~t_end:21.;
        Contact.make ~a:0 ~b:3 ~t_start:30. ~t_end:31.;
        Contact.make ~a:0 ~b:5 ~t_start:40. ~t_end:41.;
      ]
  in
  let messages = [ msg ~id:0 ~src:0 ~dst:5 0.; msg ~id:1 ~src:0 ~dst:5 10. ] in
  let log = ref [] in
  let cut = Engine.run ~ttl:15. ~trace ~messages (offer_log log) in
  Alcotest.check offers "offers stop at expiry" [ (12., 0, 0); (12., 0, 1); (20., 0, 1) ]
    (List.rev !log);
  let delivered (o : Engine.outcome) =
    Array.to_list (Array.map (fun r -> r.Engine.delivered) o.Engine.records)
  in
  Alcotest.(check (list (option (float 0.)))) "expired: nothing delivered" [ None; None ]
    (delivered cut);
  Alcotest.(check int) "expired: no transmission" 0 cut.Engine.copies;
  let open_ended = Engine.run ~trace ~messages (offer_log (ref [])) in
  Alcotest.(check (list (option (float 0.)))) "unbounded: both delivered" [ Some 40.; Some 40. ]
    (delivered open_ended);
  Alcotest.(check int) "unbounded: one transmission each" 2 open_ended.Engine.copies

(* --- Metrics --- *)

let fixture_outcome () =
  let trace =
    Trace.create ~n_nodes:4 ~horizon:100.
      [
        Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:20.;
        Contact.make ~a:2 ~b:3 ~t_start:50. ~t_end:60.;
      ]
  in
  let messages =
    [ msg ~id:0 ~src:0 ~dst:1 0.; msg ~id:1 ~src:2 ~dst:3 10.; msg ~id:2 ~src:0 ~dst:3 0. ]
  in
  Engine.run ~trace ~messages epidemic

let test_metrics_of_outcome () =
  let m = Metrics.of_outcome (fixture_outcome ()) in
  Alcotest.(check int) "messages" 3 m.Metrics.messages;
  Alcotest.(check int) "delivered" 2 m.Metrics.delivered;
  Alcotest.(check (float 1e-9)) "success" (2. /. 3.) m.Metrics.success_rate;
  (* delays: 10 (msg0) and 40 (msg1) *)
  Alcotest.check feps "mean delay" 25. m.Metrics.mean_delay;
  Alcotest.check feps "median delay" 25. m.Metrics.median_delay

let test_metrics_delays_sorted () =
  let d = Metrics.delays (fixture_outcome ()) in
  Alcotest.(check (array (float 1e-9))) "sorted delays" [| 10.; 40. |] d

(* One delivered message with delay 5, same algorithm as the fixture. *)
let small_outcome () =
  let trace =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:5. ~t_end:10. ]
  in
  Engine.run ~trace ~messages:[ msg ~src:0 ~dst:1 0. ] epidemic

let test_metrics_pool () =
  (* Pooled delays are [5; 10; 40]: the median is the middle value, 10.
     A delivery-weighted mean of the per-run medians (25 and 5) would be
     (2*25 + 1*5)/3 = 18.33 — the bug this test pins down. *)
  let pooled = Metrics.pool [ fixture_outcome (); small_outcome () ] in
  Alcotest.(check int) "messages pooled" 4 pooled.Metrics.messages;
  Alcotest.(check int) "delivered pooled" 3 pooled.Metrics.delivered;
  Alcotest.check feps "success" 0.75 pooled.Metrics.success_rate;
  Alcotest.check feps "pooled median" 10. pooled.Metrics.median_delay;
  Alcotest.check feps "pooled mean" (55. /. 3.) pooled.Metrics.mean_delay

let test_metrics_pool_singleton_and_errors () =
  let o = fixture_outcome () in
  Alcotest.(check bool) "singleton = of_outcome" true
    (Stdlib.compare (Metrics.pool [ o ]) (Metrics.of_outcome o) = 0);
  Alcotest.check_raises "empty" (Invalid_argument "Metrics.pool: empty list") (fun () ->
      ignore (Metrics.pool []));
  let other =
    let trace =
      Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:5. ~t_end:10. ]
    in
    Engine.run ~trace ~messages:[ msg ~src:0 ~dst:1 0. ] never
  in
  Alcotest.check_raises "mixed algorithms" (Invalid_argument "Metrics.pool: mixed algorithms")
    (fun () -> ignore (Metrics.pool [ o; other ]))

let test_metrics_grouped () =
  let outcome = fixture_outcome () in
  let groups =
    Metrics.grouped outcome ~cmp:Int.compare ~classify:(fun (m : Message.t) -> m.Message.src)
  in
  Alcotest.(check int) "two groups" 2 (List.length groups);
  let src0 = List.assoc 0 groups in
  Alcotest.(check int) "src 0 msgs" 2 src0.Metrics.messages;
  Alcotest.(check int) "src 0 delivered" 1 src0.Metrics.delivered;
  (* msg 0 costs its delivery transmission, msg 2 its relay to node 1 *)
  Alcotest.(check int) "src 0 copies" 2 src0.Metrics.copies;
  let total = List.fold_left (fun acc (_, g) -> acc + g.Metrics.copies) 0 groups in
  Alcotest.(check int) "group copies sum to outcome total" outcome.Engine.copies total

(* Regression: grouping used a polymorphic Hashtbl, under which a
   NaN-bearing key never equals itself — every record classified to
   NaN silently spawned its own single-record group. The explicit
   comparator ([Float.compare] grounds NaN) must coalesce them. *)
let test_metrics_grouped_nan_key () =
  let outcome = fixture_outcome () in
  (* src 0 (two messages) classifies to NaN, everything else to 1. *)
  let classify (m : Message.t) = if m.Message.src = 0 then Float.nan else 1. in
  let groups = Metrics.grouped outcome ~cmp:Float.compare ~classify in
  Alcotest.(check int) "NaN key forms one group, not one per record" 2 (List.length groups);
  let nan_group =
    List.find (fun (k, _) -> Float.is_nan k) groups |> fun (_, m) -> m.Metrics.messages
  in
  Alcotest.(check int) "both NaN-keyed records grouped together" 2 nan_group;
  let total = List.fold_left (fun acc (_, g) -> acc + g.Metrics.messages) 0 groups in
  Alcotest.(check int) "every record grouped exactly once" 3 total

let test_copies_direct_delivery () =
  (* Two nodes, one contact, one message: the only transmission is the
     src -> dst delivery itself, so copies is 1 (not 0). *)
  let trace =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:30. ~t_end:40. ]
  in
  let outcome = Engine.run ~trace ~messages:[ msg ~src:0 ~dst:1 10. ] epidemic in
  Alcotest.(check int) "record copies" 1 outcome.Engine.records.(0).Engine.copies;
  Alcotest.(check int) "outcome copies" 1 outcome.Engine.copies

let test_negative_creation_rejected () =
  (* Message.make already rejects negative times, but the record type is
     concrete, so the engine must validate what it is handed. *)
  let trace =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:20. ]
  in
  let rogue = { Message.id = 0; src = 0; dst = 1; t_create = -5. } in
  Alcotest.check_raises "negative t_create"
    (Invalid_argument "Engine.run: message created outside trace window") (fun () ->
      ignore (Engine.run ~trace ~messages:[ rogue ] never))

(* A probe that logs every callback the drain makes, in order. *)
let logging_probe log =
  {
    Algorithm.name = "Probe";
    observe_contact =
      (fun ~time ~a ~b -> log := Printf.sprintf "contact %d-%d@%g" a b time :: !log);
    on_create =
      (fun m -> log := Printf.sprintf "create %d@%g" m.Message.id m.Message.t_create :: !log);
    should_forward = (fun _ -> false);
    on_forward = (fun _ -> ());
  }

let test_event_drain_order () =
  (* A tie-heavy schedule: one contact ends at t = 20 exactly as three
     others start and three messages are created. The monomorphic event
     comparator pins the drain order — ends, then starts ascending on
     (a, b), then creations ascending on message id — so the probe log
     must come out the same however the inputs were listed. *)
  let trace =
    Trace.create ~n_nodes:6 ~horizon:100.
      [
        Contact.make ~a:0 ~b:1 ~t_start:5. ~t_end:20.;
        Contact.make ~a:2 ~b:3 ~t_start:20. ~t_end:40.;
        Contact.make ~a:0 ~b:2 ~t_start:20. ~t_end:40.;
        Contact.make ~a:1 ~b:3 ~t_start:20. ~t_end:40.;
      ]
  in
  let log = ref [] in
  let probe = logging_probe log in
  (* Listed out of id order on purpose: the comparator, not the list,
     decides. Message 2 (0 -> 1) tests the end-before-start rule: the
     only 0-1 contact closes at the very instant the message is born. *)
  let messages =
    [ msg ~id:2 ~src:0 ~dst:1 20.; msg ~id:0 ~src:0 ~dst:2 20.; msg ~id:1 ~src:1 ~dst:3 20. ]
  in
  let outcome = Engine.run ~trace ~messages probe in
  Alcotest.(check (list string)) "drain order"
    [
      "contact 0-1@5";
      "contact 0-2@20";
      "contact 1-3@20";
      "contact 2-3@20";
      "create 0@20";
      "create 1@20";
      "create 2@20";
    ]
    (List.rev !log);
  (* Records follow the (shuffled) message list order, so look up by id. *)
  let delivered_of id =
    let r =
      Array.to_list outcome.Engine.records
      |> List.find (fun (r : Engine.record) -> r.Engine.message.Message.id = id)
    in
    r.Engine.delivered
  in
  (* Creations run after the simultaneous starts, so 0 and 1 deliver
     instantly; the 0-1 contact's end ran first, so 2 never can. *)
  Alcotest.(check (option (float 1e-9))) "msg 0 via fresh contact" (Some 20.) (delivered_of 0);
  Alcotest.(check (option (float 1e-9))) "msg 1 via fresh contact" (Some 20.) (delivered_of 1);
  Alcotest.(check (option (float 1e-9))) "msg 2 missed the ended contact" None (delivered_of 2)

(* --- Prepared schedules --- *)

let delivered_on schedule m =
  (Engine.run_on schedule ~messages:[ m ] never).Engine.records.(0).Engine.delivered

(* Creations merge into the prepared contact stream on the (time, code)
   order: at equal times the contact ends and starts go first. *)
let test_schedule_creation_ties () =
  let trace =
    Trace.create ~n_nodes:3 ~horizon:100.
      [
        Contact.make ~a:0 ~b:1 ~t_start:30. ~t_end:40.;
        (* a duplicate record of the same contact *)
        Contact.make ~a:0 ~b:1 ~t_start:30. ~t_end:40.;
        (* a hand-over: 1-2 closes at 60 as its successor opens *)
        Contact.make ~a:1 ~b:2 ~t_start:50. ~t_end:60.;
        Contact.make ~a:1 ~b:2 ~t_start:60. ~t_end:70.;
      ]
  in
  let schedule = Engine.prepare trace in
  let check name m expected =
    Alcotest.(check (option (float 1e-9))) name expected (delivered_on schedule m);
    Alcotest.(check (option (float 1e-9)))
      (name ^ " (one-shot)") expected
      (Engine.run ~trace ~messages:[ m ] never).Engine.records.(0).Engine.delivered
  in
  check "created at a duplicated start uses it" (msg ~src:0 ~dst:1 30.) (Some 30.);
  check "created at a duplicated end misses it" (msg ~src:1 ~dst:0 40.) None;
  check "created at a start uses it" (msg ~src:2 ~dst:1 50.) (Some 50.);
  check "created at a hand-over uses the new contact" (msg ~src:1 ~dst:2 60.) (Some 60.);
  check "created at the last end misses it" (msg ~src:2 ~dst:1 70.) None

let test_schedule_creation_after_last_contact () =
  let trace =
    Trace.create ~n_nodes:3 ~horizon:100.
      [
        Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:20.;
        Contact.make ~a:1 ~b:2 ~t_start:5. ~t_end:20.;
      ]
  in
  let schedule = Engine.prepare trace in
  let messages = [ msg ~id:1 ~src:0 ~dst:2 90.; msg ~id:0 ~src:0 ~dst:1 20. ] in
  let log = ref [] in
  let outcome = Engine.run_on schedule ~messages (logging_probe log) in
  Alcotest.(check (list string)) "drain order"
    [ "contact 1-2@5"; "contact 0-1@10"; "create 0@20"; "create 1@90" ]
    (List.rev !log);
  Alcotest.(check bool) "no delivery" true
    (Array.for_all (fun (r : Engine.record) -> Option.is_none r.Engine.delivered)
       outcome.Engine.records);
  let one_shot_log = ref [] in
  let one_shot = Engine.run ~trace ~messages (logging_probe one_shot_log) in
  Alcotest.(check (list string)) "one-shot drain order" (List.rev !one_shot_log) (List.rev !log);
  Alcotest.(check bool) "one-shot outcome" true (Stdlib.compare outcome one_shot = 0)

(* --- Runner --- *)

let runner_trace () =
  Trace.create ~n_nodes:6 ~horizon:1000.
    (List.init 30 (fun i ->
         let a = i mod 6 and b = (i + 1) mod 6 in
         Contact.make ~a ~b ~t_start:(float_of_int (i * 30)) ~t_end:(float_of_int ((i * 30) + 20))))

let runner_spec seeds =
  {
    Runner.workload = { Workload.rate = 0.05; t_start = 0.; t_end = 600.; n_nodes = 6 };
    seeds = Runner.default_seeds seeds;
  }

(* A one-factory grid, unwrapped to that factory's per-seed row. *)
let one = function [ row ] -> row | _ -> Alcotest.fail "expected one factory's row"

let test_runner_deterministic () =
  let trace = runner_trace () in
  let spec = runner_spec 2 in
  let run () = one (Runner.outcomes_many ~trace ~spec ~factories:[ (fun _ -> epidemic) ] ()) in
  let a = Metrics.pool (run ()) in
  let b = Metrics.pool (run ()) in
  Alcotest.check feps "same success" a.Metrics.success_rate b.Metrics.success_rate;
  Alcotest.(check int) "two outcomes" 2 (List.length (run ()))

(* The determinism contract of the parallel layer: any jobs value gives
   bit-identical results, because each run owns its RNG and results are
   keyed by input index. *)
let test_runner_parallel_deterministic () =
  let trace = runner_trace () in
  let spec = runner_spec 3 in
  let check_factory name factory =
    let seq = one (Runner.outcomes_many ~jobs:1 ~trace ~spec ~factories:[ factory ] ()) in
    let par = one (Runner.outcomes_many ~jobs:4 ~trace ~spec ~factories:[ factory ] ()) in
    Alcotest.(check bool) (name ^ ": outcomes identical") true (Stdlib.compare seq par = 0);
    Alcotest.(check bool) (name ^ ": pooled metrics identical") true
      (Stdlib.compare (Metrics.pool seq) (Metrics.pool par) = 0)
  in
  check_factory "epidemic" (fun _ -> epidemic);
  check_factory "never" (fun _ -> never);
  let factories = [ (fun _ -> epidemic); (fun _ -> never) ] in
  let pooled jobs = List.map Metrics.pool (Runner.outcomes_many ~jobs ~trace ~spec ~factories ()) in
  Alcotest.(check bool) "pooled grid identical across jobs" true
    (Stdlib.compare (pooled 1) (pooled 4) = 0)

let test_parallel_map () =
  let input = Array.init 100 (fun i -> i) in
  let sq _ i = i * i in
  Alcotest.(check (array int)) "order preserved" (Array.map (sq ()) input)
    (Core.Parallel.map_traced ~jobs:4 sq input);
  Alcotest.(check (array int)) "jobs=1 matches jobs=7" (Core.Parallel.map_traced ~jobs:1 sq input)
    (Core.Parallel.map_traced ~jobs:7 sq input);
  Alcotest.(check (array int)) "empty input" [||] (Core.Parallel.map_traced ~jobs:4 sq [||]);
  Alcotest.check_raises "worker exception propagates" (Invalid_argument "boom") (fun () ->
      ignore
        (Core.Parallel.map_traced ~jobs:4
           (fun _ i -> if i = 63 then invalid_arg "boom" else i)
           input));
  Alcotest.check_raises "jobs must be positive"
    (Invalid_argument "Parallel.map: jobs must be >= 1") (fun () ->
      ignore (Core.Parallel.map_traced ~jobs:0 sq input));
  Alcotest.check_raises "chunk must be positive"
    (Invalid_argument "Parallel.map: chunk must be >= 1") (fun () ->
      ignore (Core.Parallel.map_traced ~chunk:0 sq input))

(* With several tasks failing, the chunked pool must re-raise the
   exception of the lowest failing index whatever the claim schedule —
   workers keep draining after a failure, so every failure is observed
   and the choice is deterministic for any jobs × chunk. *)
let test_parallel_chunked_exception_order () =
  let input = Array.init 40 (fun i -> i) in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          Alcotest.check_raises
            (Printf.sprintf "lowest index wins (jobs=%d chunk=%d)" jobs chunk)
            (Invalid_argument "boom 17")
            (fun () ->
              ignore
                (Core.Parallel.map_traced ~jobs ~chunk
                   (fun _ i ->
                     if i = 17 || i = 23 || i = 39 then invalid_arg (Printf.sprintf "boom %d" i)
                     else i)
                   input)))
        [ 1; 3; 64 ])
    [ 1; 2; 4; 7 ]

(* --- graceful degradation: map_result cells, checkpoint --- *)

module Failpoint = Core.Failpoint

let with_failpoints spec f =
  match Failpoint.parse spec with
  | Error msg -> Alcotest.fail msg
  | Ok plan ->
    Failpoint.install plan;
    Fun.protect ~finally:Failpoint.uninstall f

(* Exceptions carry closures in some payloads; compare cells through a
   describable shape instead. *)
let cell_shape = function Ok v -> Ok v | Error e -> Error (Failpoint.describe e)

let test_parallel_map_result_cells () =
  let input = Array.init 30 (fun i -> i) in
  let f _env _sink i = if i mod 7 = 3 then raise Stdlib.Not_found else i * 2 in
  let run ~jobs ~chunk =
    Core.Parallel.map_result ~jobs ~chunk ~env:(fun () -> ()) f input |> Array.map cell_shape
  in
  let seq = run ~jobs:1 ~chunk:1 in
  Array.iteri
    (fun i cell ->
      match cell with
      | Ok v ->
        Alcotest.(check int) "ok cell value" (i * 2) v;
        Alcotest.(check bool) "ok cell position" false (i mod 7 = 3)
      | Error _ -> Alcotest.(check bool) "error cell position" true (i mod 7 = 3))
    seq;
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          Alcotest.(check bool)
            (Printf.sprintf "cells identical jobs=%d chunk=%d" jobs chunk)
            true
            (Stdlib.compare (run ~jobs ~chunk) seq = 0))
        [ 1; 3; 64 ])
    [ 2; 4; 7 ];
  Alcotest.check_raises "join_results re-raises" Stdlib.Not_found (fun () ->
      ignore
        (Core.Parallel.join_results
           (Core.Parallel.map_result ~jobs:4 ~env:(fun () -> ()) f input)))

let test_parallel_permanent_not_retried () =
  let attempts = Atomic.make 0 in
  let f _env _sink () =
    Atomic.incr attempts;
    raise Stdlib.Exit
  in
  let cells = Core.Parallel.map_result ~jobs:1 ~env:(fun () -> ()) f [| () |] in
  Alcotest.(check int) "a raising task runs once" 1 (Atomic.get attempts);
  match cells.(0) with
  | Error Stdlib.Exit -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected the task's own exception in the cell"

(* Checkpointed rounds reach the cache even when a later task fails
   permanently, and a rerun against the same cache (the CLI's --resume)
   reproduces the uninterrupted output bit for bit. Without a cache the
   same fan-out computes every task and stores nothing. *)
let test_cached_map_checkpoint_resume () =
  let tbl = Hashtbl.create 32 in
  let cache = ((fun i -> Hashtbl.find_opt tbl i), fun i v -> Hashtbl.replace tbl i v) in
  let input = Array.init 20 (fun i -> i) in
  let compute _env _sink i =
    Failpoint.trigger ~key:(Int64.of_int i) "test.task";
    i * i
  in
  (* [prepare] runs once per call with misses, however many rounds. *)
  let prepared = ref 0 in
  let prepare () = incr prepared in
  with_failpoints "test.task=error@13" (fun () ->
      let cells =
        Core.Runner.cached_map_result ~jobs:1 ~chunk:1 ~checkpoint:4 ~prepare ~cache
          ~env:(fun () -> ())
          ~compute input
      in
      let failed =
        Array.to_list cells |> List.filter (function Error _ -> true | Ok _ -> false)
      in
      Alcotest.(check int) "one failed cell" 1 (List.length failed));
  Alcotest.(check int) "successes checkpointed" 19 (Hashtbl.length tbl);
  Alcotest.(check int) "prepared once over five rounds" 1 !prepared;
  let resumed =
    Core.Parallel.join_results
      (Core.Runner.cached_map_result ~jobs:4 ~chunk:3 ~checkpoint:4 ~prepare ~cache
         ~env:(fun () -> ())
         ~compute input)
  in
  Alcotest.(check (array int)) "resumed = uninterrupted" (Array.map (fun i -> i * i) input)
    resumed;
  Alcotest.(check int) "prepared for the one miss" 2 !prepared;
  ignore (Core.Runner.cached_map_result ~prepare ~cache ~env:(fun () -> ()) ~compute input);
  Alcotest.(check int) "an all-hit call prepares nothing" 2 !prepared;
  let uncached =
    Core.Parallel.join_results
      (Core.Runner.cached_map_result ~jobs:2 ~checkpoint:4 ~prepare ~env:(fun () -> ())
         ~compute input)
  in
  Alcotest.(check (array int)) "cache-less = cached" resumed uncached;
  Alcotest.(check int) "a cache-less call prepares once" 3 !prepared;
  Alcotest.(check int) "a cache-less call stores nothing" 20 (Hashtbl.length tbl);
  Alcotest.check_raises "negative checkpoint rejected"
    (Invalid_argument "Runner.cached_map_result: checkpoint must be >= 0") (fun () ->
      ignore
        (Core.Runner.cached_map_result ~checkpoint:(-1) ~cache ~env:(fun () -> ()) ~compute
           input))

(* Scratch reuse is invisible: the same scratch replayed across runs —
   different seeds, a smaller population, even straight after an
   aborted drain left it dirty — yields outcomes bit-identical to
   fresh-scratch runs. *)
let test_engine_scratch_reuse () =
  let trace = runner_trace () in
  let messages seed =
    Workload.generate ~rng:(Rng.create ~seed ())
      { Workload.rate = 0.05; t_start = 0.; t_end = 600.; n_nodes = 6 }
  in
  let scratch = Engine.scratch () in
  let seeds = [ 7L; 8L; 9L ] in
  let fresh = List.map (fun s -> Engine.run ~trace ~messages:(messages s) epidemic) seeds in
  let reused =
    List.map (fun s -> Engine.run ~scratch ~trace ~messages:(messages s) epidemic) seeds
  in
  Alcotest.(check bool) "reused scratch identical" true (Stdlib.compare fresh reused = 0);
  (* The same scratch over a smaller population: stale rows beyond the
     new n must never be read. *)
  let small =
    Trace.create ~n_nodes:2 ~horizon:100. [ Contact.make ~a:0 ~b:1 ~t_start:30. ~t_end:40. ]
  in
  let with_scratch = Engine.run ~scratch ~trace:small ~messages:[ msg ~src:0 ~dst:1 10. ] never in
  let without = Engine.run ~trace:small ~messages:[ msg ~src:0 ~dst:1 10. ] never in
  Alcotest.(check bool) "smaller population identical" true
    (Stdlib.compare with_scratch without = 0)

let test_engine_scratch_dirty () =
  let trace = runner_trace () in
  let messages =
    Workload.generate
      ~rng:(Rng.create ~seed:5L ())
      { Workload.rate = 0.05; t_start = 0.; t_end = 600.; n_nodes = 6 }
  in
  let scratch = Engine.scratch () in
  (* An algorithm callback that raises mid-drain aborts the run with
     the peer lists mid-flight... *)
  let seen = ref 0 in
  let bomb =
    {
      Algorithm.name = "Bomb";
      observe_contact =
        (fun ~time:_ ~a:_ ~b:_ ->
          incr seen;
          if !seen = 5 then invalid_arg "mid-drain");
      on_create = (fun _ -> ());
      should_forward = (fun _ -> true);
      on_forward = (fun _ -> ());
    }
  in
  (match Engine.run ~scratch ~trace ~messages bomb with
  | _ -> Alcotest.fail "bomb did not raise"
  | exception Invalid_argument _ -> ());
  (* ...and the next run on the same scratch must reset them instead
     of replaying ghost contacts. *)
  let after = Engine.run ~scratch ~trace ~messages epidemic in
  let fresh = Engine.run ~trace ~messages epidemic in
  Alcotest.(check bool) "dirty scratch rebuilt" true (Stdlib.compare after fresh = 0);
  (* A raise mid-exchange, right after a drop: at t = 20 node 0 has
     just dropped the delivered message 0 when the question about
     message 1 raises, leaving its held list half compacted. *)
  let held_trace, held_messages = held_fixture () in
  let bomb = offer_log ~bomb_at:20. (ref []) in
  (match Engine.run ~scratch ~trace:held_trace ~messages:held_messages bomb with
  | _ -> Alcotest.fail "mid-exchange bomb did not raise"
  | exception Invalid_argument _ -> ());
  let run_logged ?scratch () =
    let log = ref [] in
    let outcome = Engine.run ?scratch ~trace:held_trace ~messages:held_messages (offer_log log) in
    (outcome, List.rev !log)
  in
  Alcotest.(check bool) "mid-exchange raise: reused = fresh" true
    (Stdlib.compare (run_logged ~scratch ()) (run_logged ()) = 0);
  let after = Engine.run ~scratch ~trace ~messages epidemic in
  Alcotest.(check bool) "mid-exchange raise: larger run reused = fresh" true
    (Stdlib.compare after fresh = 0)

(* Engine state is linear in the population: a 2048-node trace whose
   contacts touch only nodes 0, 1 and 2047 must not pay for the nodes
   that never meet. One n x n int matrix alone would be 32 MiB here. *)
let test_engine_alloc_linear () =
  let n = 2048 in
  let trace =
    Trace.create ~n_nodes:n ~horizon:200.
      [
        Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:50.;
        Contact.make ~a:0 ~b:1 ~t_start:20. ~t_end:40.;
        Contact.make ~a:1 ~b:(n - 1) ~t_start:30. ~t_end:80.;
        Contact.make ~a:0 ~b:(n - 1) ~t_start:100. ~t_end:120.;
      ]
  in
  let messages = [ msg ~src:0 ~dst:(n - 1) 0. ] in
  let before = Gc.allocated_bytes () in
  let outcome = Engine.run ~trace ~messages epidemic in
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check (option (float 0.))) "delivered through node 1" (Some 30.)
    outcome.Engine.records.(0).Engine.delivered;
  if bytes >= 1e6 then Alcotest.failf "one run on %d nodes allocated %.0f bytes (bound 1 MB)" n bytes

(* [Metrics.of_records] before its one-pass rewrite: delays through an
   option list, summed left to right, and a median by sorting and
   interpolating. Kept as the oracle the rewrite must match bit for
   bit. *)
let list_metrics algorithm (records : Engine.record array) =
  let messages = Array.length records in
  let delay_list = Array.to_list records |> List.filter_map Engine.delay in
  let delivered = List.length delay_list in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 records in
  let median () =
    let sorted = Array.of_list delay_list in
    Array.sort Float.compare sorted;
    let pos = 0.5 *. float_of_int (delivered - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Int.min (lo + 1) (delivered - 1) in
    if delivered = 1 then sorted.(0)
    else sorted.(lo) +. ((pos -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))
  in
  {
    Metrics.algorithm;
    messages;
    delivered;
    success_rate = (if messages = 0 then 0. else float_of_int delivered /. float_of_int messages);
    mean_delay =
      (if delivered = 0 then Float.nan
       else List.fold_left ( +. ) 0. delay_list /. float_of_int delivered);
    median_delay = (if delivered = 0 then Float.nan else median ());
    copies = sum (fun r -> r.Engine.copies);
    attempts = sum (fun r -> r.Engine.attempts);
  }

(* Outcomes of one algorithm: 0 to 60 records each, with a delivery
   ratio drawn per outcome so that some deliver nothing (NaN delays). *)
let gen_outcome =
  let open QCheck2.Gen in
  let* n = int_range 0 60 in
  let* p_delivered = oneofl [ 0.; 0.3; 0.9; 1. ] in
  let gen_record id =
    let* src = int_range 0 40 in
    let* dst_off = int_range 1 40 in
    let* t_create = float_range 0. 7200. in
    let* delivered = float_range 0. 1. in
    let* delay = float_range 0. 5000. in
    let* copies = int_range 0 30 in
    let* lost = int_range 0 3 in
    pure
      {
        Engine.message = Message.make ~id ~src ~dst:(src + dst_off) ~t_create;
        delivered = (if delivered < p_delivered then Some (t_create +. delay) else None);
        copies;
        attempts = copies + lost;
      }
  in
  let rec records id = if id = n then pure [] else map2 List.cons (gen_record id) (records (id + 1)) in
  let* records = records 0 in
  let records = Array.of_list records in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 records in
  pure
    {
      Engine.algorithm = "Pooled";
      records;
      copies = sum (fun r -> r.Engine.copies);
      attempts = sum (fun r -> r.Engine.attempts);
    }

let metrics_oracle_tests =
  let open QCheck2 in
  [
    Test.make ~count:200 ~name:"of_outcome equals the list-based oracle" gen_outcome (fun o ->
        Metrics.equal (Metrics.of_outcome o) (list_metrics o.Engine.algorithm o.Engine.records));
    Test.make ~count:200 ~name:"pool of 1 to 40 outcomes equals the list-based oracle"
      Gen.(list_size (int_range 1 40) gen_outcome)
      (fun outs ->
        let records = Array.concat (List.map (fun (o : Engine.outcome) -> o.Engine.records) outs) in
        Metrics.equal (Metrics.pool outs) (list_metrics "Pooled" records));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* The issue's qcheck property: pooled metrics of a chunked parallel
   run are bit-identical (Metrics.equal — IEEE payload equality) to
   the jobs = 1 run, across jobs × chunk × task-count combinations
   including empty, single-task, fewer-tasks-than-workers and
   many-more-tasks-than-workers shapes. *)
let qcheck_tests =
  let open QCheck2 in
  let trace = runner_trace () in
  let gen =
    Gen.triple
      (Gen.oneofl [ 1; 2; 4; 7 ])
      (Gen.oneofl [ 1; 3; 64 ])
      (Gen.oneofl [ 0; 1; 2; 3; 25 ])
  in
  [
    Test.make ~count:60 ~name:"chunked runs bit-identical to jobs=1"
      ~print:(fun (jobs, chunk, n) -> Printf.sprintf "jobs=%d chunk=%d tasks=%d" jobs chunk n)
      gen
      (fun (jobs, chunk, n) ->
        let tasks = Array.init n (fun i -> i * 3) in
        let seq = Array.map (fun i -> (i * 7) mod 13) tasks in
        let par = Core.Parallel.map_traced ~jobs ~chunk (fun _ i -> (i * 7) mod 13) tasks in
        let arrays_ok = Stdlib.compare par seq = 0 in
        let metrics_ok =
          n = 0
          ||
          let spec = runner_spec n in
          let pooled ~jobs ~chunk =
            Metrics.pool
              (one
                 (Runner.outcomes_many ~jobs ~chunk ~trace ~spec
                    ~factories:[ (fun _ -> epidemic) ] ()))
          in
          Metrics.equal (pooled ~jobs:1 ~chunk:1) (pooled ~jobs ~chunk)
        in
        arrays_ok && metrics_ok);
    (* An injected failure schedule is part of the determinism
       contract: the same plan produces the same Ok/Error cell pattern
       whatever the jobs × chunk scheduling. *)
    Test.make ~count:40 ~name:"failpoint schedule independent of jobs x chunk"
      ~print:(fun (jobs, chunk, n) -> Printf.sprintf "jobs=%d chunk=%d tasks=%d" jobs chunk n)
      gen
      (fun (jobs, chunk, n) ->
        let tasks = Array.init n (fun i -> i) in
        let f _env _sink i =
          Core.Failpoint.trigger ~key:(Int64.of_int i) "prop.site";
          i
        in
        let run ~jobs ~chunk =
          match Core.Failpoint.parse "prop.site=error%0.3" with
          | Error msg -> QCheck2.Test.fail_report msg
          | Ok plan ->
            Core.Failpoint.install plan;
            Fun.protect ~finally:Core.Failpoint.uninstall (fun () ->
                Core.Parallel.map_result ~jobs ~chunk ~env:(fun () -> ()) f tasks
                |> Array.map (function
                     | Ok v -> Ok v
                     | Error e -> Error (Core.Failpoint.describe e)))
        in
        Stdlib.compare (run ~jobs ~chunk) (run ~jobs:1 ~chunk:1) = 0);
    (* Kill-and-resume: a sweep that died after checkpointing some
       rounds, rerun against the same cache with any jobs value,
       reports metrics bit-identical to a never-interrupted run. *)
    Test.make ~count:20 ~name:"kill-and-resume metrics bit-identical"
      ~print:(fun (jobs, kill_at) -> Printf.sprintf "jobs=%d kill_at=%d" jobs kill_at)
      (Gen.pair (Gen.oneofl [ 1; 2; 4; 7 ]) (Gen.oneofl [ 1; 2; 5 ]))
      (fun (jobs, kill_at) ->
        let spec = runner_spec 6 in
        let factories = [ (fun _ -> epidemic) ] in
        let baseline = Metrics.pool (one (Runner.outcomes_many ~jobs:1 ~trace ~spec ~factories ())) in
        let tbl = Hashtbl.create 8 in
        let cache =
          {
            Core.Cache.find = (fun ~seed -> Hashtbl.find_opt tbl seed);
            store = (fun ~seed o -> Hashtbl.replace tbl seed o);
          }
        in
        (match Core.Failpoint.parse (Printf.sprintf "runner.task=error@%d" kill_at) with
        | Error msg -> QCheck2.Test.fail_report msg
        | Ok plan ->
          Core.Failpoint.install plan;
          Fun.protect ~finally:Core.Failpoint.uninstall (fun () ->
              ignore
                (Runner.outcomes_many_result ~jobs:1 ~chunk:1 ~checkpoint:1 ~stores:[ cache ]
                   ~trace ~spec ~factories ())));
        let resumed =
          Metrics.pool
            (one
               (Runner.outcomes_many ~jobs ~checkpoint:2 ~stores:[ cache ] ~trace ~spec
                  ~factories ()))
        in
        Metrics.equal baseline resumed);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* One prepared schedule serves any number of runs: every [run_on] over
   it equals the one-shot [Engine.run] of the same inputs, on one reused
   scratch, on fresh scratches and across two worker domains, with and
   without a fault plan. Times on a 5 s grid make ties between contact
   ends, starts and creations common. *)
let schedule_tests =
  let open QCheck2 in
  let n_nodes = 5 and horizon = 100. in
  let tick = Gen.map (fun k -> 5. *. float_of_int k) (Gen.int_range 0 19) in
  let gen_contact =
    Gen.map
      (fun (a, d, t, len) ->
        Contact.make ~a ~b:((a + d) mod n_nodes) ~t_start:t
          ~t_end:(Float.min horizon (t +. (5. *. float_of_int len))))
      (Gen.quad (Gen.int_range 0 (n_nodes - 1)) (Gen.int_range 1 (n_nodes - 1)) tick
         (Gen.int_range 1 6))
  in
  let gen_messages =
    Gen.map
      (List.mapi (fun id (src, d, t) -> msg ~id ~src ~dst:((src + d) mod n_nodes) t))
      (Gen.list_size (Gen.int_range 0 6)
         (Gen.triple (Gen.int_range 0 (n_nodes - 1)) (Gen.int_range 1 (n_nodes - 1)) tick))
  in
  let gen =
    Gen.triple
      (Gen.list_size (Gen.int_range 0 25) gen_contact)
      (Gen.list_size (Gen.int_range 1 5) gen_messages)
      (Gen.option (Gen.int_range 0 1_000_000))
  in
  let even_peers = Algorithm.stateless ~name:"Even" (fun c -> c.Algorithm.peer mod 2 = 0) in
  let algorithms = [| epidemic; never; even_peers |] in
  [
    (* Few distinct times and codes: long runs of ties and exact
       duplicates, in runs longer and shorter than the sort's
       insertion cutoff; entries past [len] and the second buffer hold
       junk the sort must neither read nor move. *)
    Test.make ~count:300 ~name:"event sort equals List.sort on (time, code)"
      Gen.(
        let* events =
          list_size (int_range 0 300)
            (pair (oneofl [ 0.; 1.; 1.5; 2.; 40.; 1e6 ]) (int_range 0 6))
        in
        let* junk = int_range 0 5 in
        return (events, junk))
      (fun (events, junk) ->
        let len = List.length events in
        let time = Array.make (len + junk) (-1.) and code = Array.make (len + junk) (-1) in
        List.iteri
          (fun i (t, c) ->
            time.(i) <- t;
            code.(i) <- c)
          events;
        Engine.sort_events time code ~tmp_time:(Array.make len 7.) ~tmp_code:(Array.make len 7) len;
        let expected =
          List.sort
            (fun (t1, c1) (t2, c2) ->
              let c = Float.compare t1 t2 in
              if c <> 0 then c else Int.compare c1 c2)
            events
        in
        List.init len (fun i -> (time.(i), code.(i))) = expected
        && Array.for_all (fun t -> t = -1.) (Array.sub time len junk)
        && Array.for_all (fun c -> c = -1) (Array.sub code len junk));
    Test.make ~count:150 ~name:"run_on over a shared schedule equals one-shot run" gen
      (fun (contacts, workloads, fault_seed) ->
        let trace = Trace.create ~n_nodes ~horizon contacts in
        let faults =
          Option.map
            (fun seed ->
              Faults.compile ~n_nodes ~horizon
                {
                  Faults.loss = 0.3;
                  crash_rate = 0.01;
                  down_time = 15.;
                  jitter = 0.3;
                  seed = Int64.of_int seed;
                })
            fault_seed
        in
        let schedule = Engine.prepare ?faults trace in
        let tasks =
          Array.of_list (List.mapi (fun i ms -> (algorithms.(i mod 3), ms)) workloads)
        in
        let one_shot =
          Array.map (fun (alg, messages) -> Engine.run ?faults ~trace ~messages alg) tasks
        in
        let scratch = Engine.scratch () in
        let reused =
          Array.map (fun (alg, messages) -> Engine.run_on ~scratch schedule ~messages alg) tasks
        in
        let fresh = Array.map (fun (alg, messages) -> Engine.run_on schedule ~messages alg) tasks in
        let parallel =
          Core.Parallel.map_env ~jobs:2 ~chunk:1 ~env:Engine.scratch
            (fun scratch _sink (alg, messages) -> Engine.run_on ~scratch schedule ~messages alg)
            tasks
        in
        Stdlib.compare one_shot reused = 0
        && Stdlib.compare one_shot fresh = 0
        && Stdlib.compare one_shot parallel = 0);
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* --- Faults --- *)

let fault_spec =
  { Faults.loss = 0.3; crash_rate = 0.002; down_time = 60.; jitter = 0.25; seed = 11L }

let test_faults_spec_basics () =
  Alcotest.(check bool) "none validates" true (Faults.validate Faults.none = Ok ());
  Alcotest.(check bool) "none is null" true (Faults.is_null Faults.none);
  Alcotest.(check bool) "spec validates" true (Faults.validate fault_spec = Ok ());
  Alcotest.(check bool) "spec is not null" false (Faults.is_null fault_spec);
  let rejected spec = match Faults.validate spec with Error _ -> true | Ok () -> false in
  Alcotest.(check bool) "loss = 1 rejected" true (rejected { fault_spec with Faults.loss = 1. });
  Alcotest.(check bool) "NaN loss rejected" true
    (rejected { fault_spec with Faults.loss = Float.nan });
  Alcotest.(check bool) "negative crash_rate rejected" true
    (rejected { fault_spec with Faults.crash_rate = -1. });
  Alcotest.(check bool) "jitter > 1 rejected" true
    (rejected { fault_spec with Faults.jitter = 1.5 });
  let doubled = Faults.scale 2. fault_spec in
  Alcotest.check feps "scale doubles loss" 0.6 doubled.Faults.loss;
  Alcotest.check feps "scale doubles crash_rate" 0.004 doubled.Faults.crash_rate;
  Alcotest.check feps "scale keeps down_time" 60. doubled.Faults.down_time;
  Alcotest.(check bool) "scale 0 is null" true (Faults.is_null (Faults.scale 0. fault_spec));
  Alcotest.(check bool) "scale clamps jitter" true
    ((Faults.scale 100. fault_spec).Faults.jitter <= 1.);
  Alcotest.(check bool) "scale clamps loss below 1" true
    ((Faults.scale 100. fault_spec).Faults.loss < 1.);
  Alcotest.check_raises "negative factor" (Invalid_argument "Faults.scale: factor must be >= 0")
    (fun () -> ignore (Faults.scale (-1.) fault_spec))

let test_faults_downtime_intervals () =
  let horizon = 5000. in
  let plan = Faults.compile ~n_nodes:10 ~horizon fault_spec in
  for node = 0 to 9 do
    let intervals = Faults.downtime plan node in
    let rec check last = function
      | [] -> ()
      | (d, r) :: rest ->
        if not (d >= last && d < r && r <= horizon) then
          Alcotest.failf "node %d: bad interval [%g, %g) after %g" node d r last;
        check r rest
    in
    check 0. intervals
  done;
  Alcotest.check_raises "node out of range" (Invalid_argument "Faults.downtime: node out of range")
    (fun () -> ignore (Faults.downtime plan 10));
  (* a null spec compiles to an empty plan *)
  let null_plan = Faults.compile ~n_nodes:10 ~horizon Faults.none in
  for node = 0 to 9 do
    Alcotest.(check (list (pair (float 0.) (float 0.)))) "no downtime" []
      (Faults.downtime null_plan node)
  done

let test_faults_degrade () =
  let trace = runner_trace () in
  let horizon = Trace.horizon trace in
  let null_plan = Faults.compile ~n_nodes:(Trace.n_nodes trace) ~horizon Faults.none in
  Alcotest.(check bool) "null plan returns the trace itself" true
    (Faults.degrade null_plan trace == trace);
  let plan = Faults.compile ~n_nodes:(Trace.n_nodes trace) ~horizon fault_spec in
  let degraded = Faults.degrade plan trace in
  Alcotest.(check int) "population preserved" (Trace.n_nodes trace) (Trace.n_nodes degraded);
  Alcotest.check feps "horizon preserved" horizon (Trace.horizon degraded);
  Alcotest.(check bool) "no contact created" true
    (Trace.n_contacts degraded <= Trace.n_contacts trace);
  let originals = ref [] in
  Trace.iter_contacts trace (fun c -> originals := c :: !originals);
  Trace.iter_contacts degraded (fun (c : Contact.t) ->
      (* every degraded contact nests inside an original of the same pair *)
      let nested =
        List.exists
          (fun (o : Contact.t) ->
            o.Contact.a = c.Contact.a && o.Contact.b = c.Contact.b
            && c.Contact.t_start >= o.Contact.t_start
            && c.Contact.t_end <= o.Contact.t_end)
          !originals
      in
      if not nested then Alcotest.failf "degraded contact not inside an original";
      (* and never overlaps an endpoint's downtime *)
      List.iter
        (fun node ->
          List.iter
            (fun (d, r) ->
              if c.Contact.t_start < r && c.Contact.t_end > d then
                Alcotest.failf "contact [%g, %g) overlaps node %d downtime [%g, %g)"
                  c.Contact.t_start c.Contact.t_end node d r)
            (Faults.downtime plan node))
        [ c.Contact.a; c.Contact.b ];
      (* degradation is deterministic *)
      ());
  Alcotest.(check bool) "degrade is reproducible" true
    (Stdlib.compare (Faults.degrade plan trace) degraded = 0)

let test_faults_transfer_loss () =
  let horizon = 1000. in
  let plan = Faults.compile ~n_nodes:6 ~horizon fault_spec in
  let verdict msg time = Faults.transfer_fails plan ~msg ~holder:0 ~peer:1 ~time in
  (* pure: replaying the same key gives the same verdict *)
  for m = 0 to 50 do
    Alcotest.(check bool) "stable verdict" (verdict m 10.) (verdict m 10.)
  done;
  (* frequency tracks the configured probability *)
  let fails = ref 0 and total = 4000 in
  for m = 0 to total - 1 do
    if verdict m (float_of_int m) then incr fails
  done;
  let rate = float_of_int !fails /. float_of_int total in
  Alcotest.(check bool)
    (Printf.sprintf "empirical loss %.3f near 0.3" rate)
    true
    (rate > 0.25 && rate < 0.35);
  (* a zero-loss plan never fails a transfer *)
  let lossless = Faults.compile ~n_nodes:6 ~horizon { fault_spec with Faults.loss = 0. } in
  for m = 0 to 200 do
    Alcotest.(check bool) "lossless" false
      (Faults.transfer_fails lossless ~msg:m ~holder:2 ~peer:3 ~time:5.)
  done

let test_engine_attempts () =
  let trace = runner_trace () in
  let messages =
    Workload.generate
      ~rng:(Rng.create ~seed:5L ())
      { Workload.rate = 0.05; t_start = 0.; t_end = 600.; n_nodes = 6 }
  in
  let clean = Engine.run ~trace ~messages epidemic in
  Alcotest.(check int) "fault-free attempts equal copies" clean.Engine.copies
    clean.Engine.attempts;
  Alcotest.check feps "fault-free overhead is 1" 1.
    (Metrics.overhead (Metrics.of_outcome clean));
  let lossy =
    Faults.compile ~n_nodes:(Trace.n_nodes trace) ~horizon:(Trace.horizon trace)
      { Faults.none with Faults.loss = 0.5; seed = 21L }
  in
  let faulted = Engine.run ~faults:lossy ~trace ~messages epidemic in
  Alcotest.(check bool) "lost transfers still count as attempts" true
    (faulted.Engine.attempts > faulted.Engine.copies);
  Alcotest.(check bool) "loss cannot add copies" true
    (faulted.Engine.copies <= clean.Engine.copies)

(* The acceptance-criteria test: a faulted fixed-seed run is
   bit-identical whatever the domain count, because every fault verdict
   is keyed by entity, never by scheduling order. *)
let test_faulted_runner_deterministic () =
  let trace = runner_trace () in
  let spec = runner_spec 3 in
  let plan =
    Faults.compile ~n_nodes:(Trace.n_nodes trace) ~horizon:(Trace.horizon trace) fault_spec
  in
  let factories = [ (fun _ -> epidemic); (fun _ -> never) ] in
  let pooled jobs =
    List.map Metrics.pool (Runner.outcomes_many ~jobs ~faults:plan ~trace ~spec ~factories ())
  in
  Alcotest.(check bool) "faulted pooled grid identical across jobs" true
    (Stdlib.compare (pooled 1) (pooled 4) = 0);
  let epidemic_row faults jobs =
    one (Runner.outcomes_many ~jobs ?faults ~trace ~spec ~factories:[ (fun _ -> epidemic) ] ())
  in
  let seq_o = epidemic_row (Some plan) 1 in
  let par_o = epidemic_row (Some plan) 4 in
  Alcotest.(check bool) "faulted outcomes identical across jobs" true
    (Stdlib.compare seq_o par_o = 0);
  (* faults change results (the plan is actually consulted) *)
  let clean = epidemic_row None 1 in
  Alcotest.(check bool) "faults alter the outcome" true (Stdlib.compare clean seq_o <> 0)

let () =
  Alcotest.run "psn_sim"
    [
      ( "workload",
        [
          Alcotest.test_case "message validation" `Quick test_message_validation;
          Alcotest.test_case "poisson generation" `Quick test_workload_poisson;
          Alcotest.test_case "paper spec" `Quick test_workload_paper_spec;
          Alcotest.test_case "fixed count" `Quick test_workload_fixed_count;
          Alcotest.test_case "validation" `Quick test_workload_validation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "delivery at contact start" `Quick test_direct_delivery_at_contact_start;
          Alcotest.test_case "delivery on creation mid-contact" `Quick
            test_delivery_on_creation_mid_contact;
          Alcotest.test_case "no delivery after contact" `Quick test_no_delivery_after_contact_ends;
          Alcotest.test_case "relay chain over time" `Quick test_relay_chain_over_time;
          Alcotest.test_case "cascade through active contacts" `Quick
            test_cascade_through_active_contacts;
          Alcotest.test_case "cascade on creation" `Quick test_cascade_on_creation;
          Alcotest.test_case "contact end blocks exchange" `Quick test_contact_end_blocks_exchange;
          Alcotest.test_case "minimal progress" `Quick test_minimal_progress_overrides_algorithm;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "negative creation rejected" `Quick test_negative_creation_rejected;
          Alcotest.test_case "copies on direct delivery" `Quick test_copies_direct_delivery;
          Alcotest.test_case "observe_contact" `Quick test_observe_contact_called;
          Alcotest.test_case "tied events drain in pinned order" `Quick test_event_drain_order;
          Alcotest.test_case "schedule creation ties" `Quick test_schedule_creation_ties;
          Alcotest.test_case "schedule creation after last contact" `Quick
            test_schedule_creation_after_last_contact;
          Alcotest.test_case "epidemic matches oracle" `Slow test_epidemic_matches_flood_oracle;
          Alcotest.test_case "allocation linear in the population" `Quick test_engine_alloc_linear;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "overlapping same-pair contacts" `Quick
            test_overlapping_same_pair_contacts;
        ] );
      ( "monotonicity",
        [ Alcotest.test_case "replication monotone" `Quick test_replication_monotone ] );
      ( "ttl",
        [
          Alcotest.test_case "blocks late delivery" `Quick test_ttl_blocks_late_delivery;
          Alcotest.test_case "blocks relaying" `Quick test_ttl_blocks_relaying;
          Alcotest.test_case "validation" `Quick test_ttl_validation;
        ] );
      ( "held lists",
        [
          Alcotest.test_case "live copies keep their order" `Quick test_held_live_order;
          Alcotest.test_case "expired copies stop being offered" `Quick test_held_ttl_expiry;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "of_outcome" `Quick test_metrics_of_outcome;
          Alcotest.test_case "delays sorted" `Quick test_metrics_delays_sorted;
          Alcotest.test_case "pool" `Quick test_metrics_pool;
          Alcotest.test_case "pool singleton and errors" `Quick
            test_metrics_pool_singleton_and_errors;
          Alcotest.test_case "grouped" `Quick test_metrics_grouped;
          Alcotest.test_case "grouped NaN key" `Quick test_metrics_grouped_nan_key;
        ]
        @ metrics_oracle_tests );
      ( "runner",
        [
          Alcotest.test_case "deterministic" `Quick test_runner_deterministic;
          Alcotest.test_case "parallel deterministic" `Quick test_runner_parallel_deterministic;
          Alcotest.test_case "parallel map" `Quick test_parallel_map;
          Alcotest.test_case "chunked exception order" `Quick
            test_parallel_chunked_exception_order;
          Alcotest.test_case "map_result cells" `Quick test_parallel_map_result_cells;
          Alcotest.test_case "permanent not retried" `Quick test_parallel_permanent_not_retried;
          Alcotest.test_case "checkpoint and resume" `Quick test_cached_map_checkpoint_resume;
          Alcotest.test_case "scratch reuse" `Quick test_engine_scratch_reuse;
          Alcotest.test_case "dirty scratch rebuilt" `Quick test_engine_scratch_dirty;
        ] );
      ("properties", qcheck_tests @ schedule_tests);
      ( "faults",
        [
          Alcotest.test_case "spec basics" `Quick test_faults_spec_basics;
          Alcotest.test_case "downtime intervals" `Quick test_faults_downtime_intervals;
          Alcotest.test_case "degrade" `Quick test_faults_degrade;
          Alcotest.test_case "transfer loss" `Quick test_faults_transfer_loss;
          Alcotest.test_case "engine attempts" `Quick test_engine_attempts;
          Alcotest.test_case "faulted parallel deterministic" `Quick
            test_faulted_runner_deterministic;
        ] );
    ]
