(* Tests for the online serving subsystem: sliding-window semantics
   (eviction, budget backpressure, batch equivalence against
   Trace.restrict), the line protocol, the adaptive multipath router,
   and whole-server properties — jobs/chunk transcript invariance,
   snapshot round-trips, and the eviction-then-reinsert regression. *)

module Window = Core.Serve_window
module Serve = Core.Serve
module Protocol = Core.Serve_protocol
module Multipath = Core.Multipath
module Contact = Core.Contact
module Trace = Core.Trace
module Codec = Core.Store_codec

let c ~a ~b ~s ~e = Contact.make ~a ~b ~t_start:s ~t_end:e

let ok_or_fail what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let window ?(span = 100.) ?(budget = 1000) ?(policy = Window.Slide) ?(nodes = 0) () =
  ok_or_fail "Window.create" (Window.create { Window.span; budget; policy; nodes })

let ingest_ok w contact =
  match ok_or_fail "ingest" (Window.ingest w contact) with
  | Window.Accepted -> ()
  | Window.Rejected_over_budget -> Alcotest.fail "unexpected budget rejection"

(* --- window semantics --- *)

let test_window_validation () =
  let bad cfg = match Window.create cfg with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "zero span" true
    (bad { Window.span = 0.; budget = 1; policy = Window.Drop; nodes = 0 });
  Alcotest.(check bool) "nan span" true
    (bad { Window.span = Float.nan; budget = 1; policy = Window.Drop; nodes = 0 });
  Alcotest.(check bool) "zero budget" true
    (bad { Window.span = 1.; budget = 0; policy = Window.Drop; nodes = 0 });
  Alcotest.(check bool) "negative population" true
    (bad { Window.span = 1.; budget = 1; policy = Window.Drop; nodes = -1 })

let test_window_ordering () =
  let w = window () in
  ingest_ok w (c ~a:0 ~b:1 ~s:50. ~e:60.);
  (match Window.ingest w (c ~a:0 ~b:1 ~s:49. ~e:60.) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-order ingest accepted");
  (* Equal start is fine — ties happen in real traces. *)
  ingest_ok w (c ~a:1 ~b:2 ~s:50. ~e:70.);
  (match Window.advance w 10. with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "backwards advance accepted");
  Alcotest.(check int) "both live" 2 (Window.size w)

let test_window_fixed_population () =
  let w = window ~nodes:3 () in
  ingest_ok w (c ~a:0 ~b:2 ~s:0. ~e:10.);
  (match Window.ingest w (c ~a:1 ~b:3 ~s:5. ~e:10.) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range endpoint accepted");
  Alcotest.(check int) "population pinned" 3 (Window.n_nodes w)

let test_window_eviction () =
  let w = window ~span:100. () in
  ingest_ok w (c ~a:0 ~b:1 ~s:0. ~e:50.);
  ingest_ok w (c ~a:1 ~b:2 ~s:60. ~e:80.);
  ingest_ok w (c ~a:2 ~b:3 ~s:90. ~e:160.);
  Alcotest.(check int) "all live at 90" 3 (Window.size w);
  let evicted = ok_or_fail "advance" (Window.advance w 155.) in
  (* t0 = 55: the [0,50] contact expired, [60,80] still intersects. *)
  Alcotest.(check int) "one eviction at 155" 1 evicted;
  Alcotest.(check int) "two live" 2 (Window.size w);
  let evicted = ok_or_fail "advance" (Window.advance w 200.) in
  Alcotest.(check int) "second eviction at 200" 1 evicted;
  Alcotest.(check int) "one live" 1 (Window.size w);
  Alcotest.(check int) "peak remembers the high water" 3 (Window.peak w);
  let counters = Window.counters w in
  Alcotest.(check int) "evicted counter" 2 counters.Window.evicted;
  Alcotest.(check int) "ingested counter" 3 counters.Window.ingested

let test_window_dead_on_arrival () =
  let w = window ~span:10. () in
  ingest_ok w (c ~a:0 ~b:1 ~s:0. ~e:5.);
  ignore (ok_or_fail "advance" (Window.advance w 1000.));
  (* Arrives already behind the window: counted, never goes live. *)
  ingest_ok w (c ~a:2 ~b:3 ~s:500. ~e:600.);
  Alcotest.(check int) "nothing live" 0 (Window.size w);
  let counters = Window.counters w in
  Alcotest.(check int) "both ingested" 2 counters.Window.ingested;
  Alcotest.(check int) "both evicted" 2 counters.Window.evicted;
  (* ... but the population ratchet and clock did observe it. *)
  Alcotest.(check int) "population ratchet" 4 (Window.n_nodes w)

let test_window_drop_policy () =
  let w = window ~span:1000. ~budget:2 ~policy:Window.Drop () in
  ingest_ok w (c ~a:0 ~b:1 ~s:0. ~e:10.);
  ingest_ok w (c ~a:1 ~b:2 ~s:1. ~e:11.);
  (match ok_or_fail "ingest" (Window.ingest w (c ~a:2 ~b:3 ~s:2. ~e:12.)) with
  | Window.Rejected_over_budget -> ()
  | Window.Accepted -> Alcotest.fail "over-budget ingest accepted under Drop");
  Alcotest.(check int) "size capped" 2 (Window.size w);
  Alcotest.(check int) "drop counted" 1 (Window.counters w).Window.dropped;
  (* Drop keeps the old contents: the rejected newcomer is absent. *)
  let live = Window.contacts w in
  Alcotest.(check bool) "newcomer absent" false
    (List.exists (fun (ct : Contact.t) -> ct.Contact.a = 2 && ct.Contact.b = 3) live)

let test_window_slide_policy () =
  let w = window ~span:1000. ~budget:2 ~policy:Window.Slide () in
  ingest_ok w (c ~a:0 ~b:1 ~s:0. ~e:10.);
  ingest_ok w (c ~a:1 ~b:2 ~s:1. ~e:500.);
  ingest_ok w (c ~a:2 ~b:3 ~s:2. ~e:12.);
  Alcotest.(check int) "size capped" 2 (Window.size w);
  Alcotest.(check int) "budget eviction counted" 1 (Window.counters w).Window.budget_evicted;
  (* Slide evicts the earliest-ending live contact — [0,10]. *)
  let live = Window.contacts w in
  Alcotest.(check bool) "earliest-ending evicted" false
    (List.exists (fun (ct : Contact.t) -> ct.Contact.a = 0 && ct.Contact.b = 1) live);
  Alcotest.(check bool) "newcomer live" true
    (List.exists (fun (ct : Contact.t) -> ct.Contact.a = 2 && ct.Contact.b = 3) live)

(* The load-bearing window guarantee, concrete case: the window trace
   is byte-identical (encoded) to Trace.restrict of the full stream. *)
let test_window_batch_equivalence_concrete () =
  let stream =
    [
      c ~a:0 ~b:1 ~s:0. ~e:60.;
      c ~a:1 ~b:2 ~s:30. ~e:90.;
      c ~a:2 ~b:3 ~s:80. ~e:150.;
      c ~a:0 ~b:3 ~s:120. ~e:130.;
    ]
  in
  let w = window ~span:100. () in
  List.iter (ingest_ok w) stream;
  ignore (ok_or_fail "advance" (Window.advance w 140.));
  let got = ok_or_fail "window trace" (Window.trace w) in
  let full = Trace.create ~n_nodes:(Window.n_nodes w) ~horizon:200. stream in
  let want = Trace.restrict full ~t0:(Window.start w) ~t1:(Window.now w) in
  Alcotest.(check string) "encoded traces equal" (Codec.encode_trace want)
    (Codec.encode_trace got)

(* --- protocol --- *)

let parse_ok line =
  match Protocol.parse line with
  | Ok v -> v
  | Error msg -> Alcotest.failf "parse %S: %s" line msg

let test_protocol_parse () =
  (match parse_ok "3,5,10.5,20" with
  | Protocol.Contact ct ->
    Alcotest.(check int) "endpoint a" 3 ct.Contact.a;
    Alcotest.(check int) "endpoint b" 5 ct.Contact.b
  | _ -> Alcotest.fail "contact line not parsed as contact");
  (match parse_ok "advance 42" with
  | Protocol.Advance t -> Alcotest.(check (float 0.)) "advance time" 42. t
  | _ -> Alcotest.fail "advance not parsed");
  (match parse_ok "inject 1 2" with
  | Protocol.Query (Protocol.Inject { src = 1; dst = 2; t = None }) -> ()
  | _ -> Alcotest.fail "inject not parsed");
  (match parse_ok "paths 1 2 30" with
  | Protocol.Query (Protocol.Paths { src = 1; dst = 2; t = Some 30. }) -> ()
  | _ -> Alcotest.fail "paths not parsed");
  (match parse_ok "  # comment " with
  | Protocol.Blank -> ()
  | _ -> Alcotest.fail "comment not blank");
  (match parse_ok "" with
  | Protocol.Blank -> ()
  | _ -> Alcotest.fail "empty not blank");
  (match parse_ok "quit" with
  | Protocol.Query Protocol.Quit -> ()
  | _ -> Alcotest.fail "quit not parsed")

let test_protocol_errors () =
  let bad line = match Protocol.parse line with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "unknown verb" true (bad "frobnicate 1 2");
  Alcotest.(check bool) "self contact" true (bad "1,1,0,10");
  Alcotest.(check bool) "inverted interval" true (bad "1,2,10,5");
  Alcotest.(check bool) "negative endpoint" true (bad "inject -1 2");
  Alcotest.(check bool) "non-numeric time" true (bad "advance soon");
  Alcotest.(check bool) "wrong contact arity" true (bad "1,2,3")

(* --- multipath router --- *)

let router ?(alpha = 0.3) ?(explore = 1) names =
  ok_or_fail "Multipath.create" (Multipath.create { Multipath.alpha; explore } ~names)

let test_multipath_validation () =
  let bad cfg names = match Multipath.create cfg ~names with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "alpha zero" true
    (bad { Multipath.alpha = 0.; explore = 1 } [ "a" ]);
  Alcotest.(check bool) "alpha above one" true
    (bad { Multipath.alpha = 1.5; explore = 1 } [ "a" ]);
  Alcotest.(check bool) "no strategies" true
    (bad { Multipath.alpha = 0.5; explore = 1 } []);
  Alcotest.(check bool) "duplicate names" true
    (bad { Multipath.alpha = 0.5; explore = 1 } [ "a"; "a" ])

let test_multipath_explore_then_exploit () =
  let r = router [ "fast"; "slow" ] in
  (* Below the explore threshold both score optimistically; ties break
     on registration order. *)
  Alcotest.(check string) "optimistic tie" "fast" (Multipath.pick r);
  Multipath.observe r "fast" ~delivered:true ~delay:(Some 10.) ~loss:0.;
  Multipath.observe r "slow" ~delivered:true ~delay:(Some 1.) ~loss:0.;
  (* Both observed once: the lower-delay strategy scores higher
     (1 / 2 vs 1 / 11). *)
  Alcotest.(check string) "exploits lower delay" "slow" (Multipath.pick r);
  (* Five failures drag slow's EWMA success to 0.7^5 ~ 0.168, scoring
     0.084 — under fast's 0.091: the router rebalances. *)
  for _ = 1 to 5 do
    Multipath.observe r "slow" ~delivered:false ~delay:None ~loss:0.
  done;
  Alcotest.(check string) "rebalances on failures" "fast" (Multipath.pick r)

let test_multipath_unknown_name () =
  let r = router [ "only" ] in
  match Multipath.observe r "missing" ~delivered:true ~delay:None ~loss:0. with
  | () -> Alcotest.fail "observe on unknown strategy did not raise"
  | exception Invalid_argument _ -> ()

let test_multipath_dump_load_roundtrip () =
  let cfg = { Multipath.alpha = 0.4; explore = 2 } in
  let r = ok_or_fail "create" (Multipath.create cfg ~names:[ "a"; "b" ]) in
  Multipath.observe r "a" ~delivered:true ~delay:(Some 12.5) ~loss:0.25;
  Multipath.observe r "b" ~delivered:false ~delay:None ~loss:1.;
  Multipath.observe r "a" ~delivered:true ~delay:(Some 3.) ~loss:0.;
  let copy = ok_or_fail "create" (Multipath.create cfg ~names:[ "a"; "b" ]) in
  ok_or_fail "load" (Multipath.load copy (Multipath.dump r));
  List.iter
    (fun name ->
      Alcotest.(check int)
        (name ^ " observations") (Multipath.observations r name)
        (Multipath.observations copy name);
      Alcotest.(check (float 0.))
        (name ^ " score") (Multipath.score r name) (Multipath.score copy name))
    [ "a"; "b" ];
  Alcotest.(check string) "same pick" (Multipath.pick r) (Multipath.pick copy)

let test_multipath_diversity () =
  let path nodes = Core.Path.of_hops (List.mapi (fun i n -> { Core.Path.node = n; step = i }) nodes) in
  (* Two identical paths: zero diversity on both axes. *)
  (match Multipath.diversity [ path [ 0; 1; 2 ]; path [ 0; 1; 2 ] ] with
  | Some (nd, ed) ->
    Alcotest.(check (float 1e-9)) "identical node diversity" 0. nd;
    Alcotest.(check (float 1e-9)) "identical edge diversity" 0. ed
  | None -> Alcotest.fail "diversity of two paths missing");
  (* Node-disjoint paths: full diversity. *)
  (match Multipath.diversity [ path [ 0; 1 ]; path [ 2; 3 ] ] with
  | Some (nd, ed) ->
    Alcotest.(check (float 1e-9)) "disjoint node diversity" 1. nd;
    Alcotest.(check (float 1e-9)) "disjoint edge diversity" 1. ed
  | None -> Alcotest.fail "diversity of disjoint paths missing");
  (* Same node set, different hop order: shared nodes, disjoint edges. *)
  (match Multipath.diversity [ path [ 0; 1; 2; 3 ]; path [ 0; 2; 1; 3 ] ] with
  | Some (nd, ed) ->
    Alcotest.(check (float 1e-9)) "shared nodes" 0. nd;
    Alcotest.(check bool) "edges differ" true (ed > 0.)
  | None -> Alcotest.fail "diversity missing");
  Alcotest.(check bool) "singleton has no diversity" true
    (Option.is_none (Multipath.diversity [ path [ 0; 1 ] ]))

(* --- server --- *)

let default_server ?(jobs = 1) ?chunk ?(span = 1000.) ?(strategies = []) ?faults () =
  ok_or_fail "Serve.create"
    (Serve.create ~jobs ?chunk
       {
         Serve.default_config with
         Serve.window = { Serve.default_config.Serve.window with Window.span };
         strategies;
         faults;
       })

(* A session exercising every query against a stream that slides far
   enough to evict contacts and expire a live message. *)
let session_script =
  [
    "0,1,0,60";
    "1,2,30,90";
    "2,3,80,150";
    "advance 100";
    "inject 0 3";
    "inject 3 0 90";
    "paths 0 3 10";
    "delivery 0 3 10";
    "0,3,120,130";
    "advance 200";
    "route";
    "1,3,1050,1100";
    "advance 1300";
    "stats";
  ]

let run_script server lines =
  List.concat_map
    (fun line ->
      match Serve.handle server line with `Reply r -> r | `Stop r -> r)
    lines

let test_server_oracle_rejected () =
  match
    Serve.create { Serve.default_config with Serve.strategies = [ "greedy-total" ] }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oracle strategy accepted for serving"

let test_server_unknown_strategy () =
  match Serve.create { Serve.default_config with Serve.strategies = [ "warp-drive" ] } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown strategy accepted"

let test_server_errors_are_replies () =
  let s = default_server () in
  let is_err line =
    match Serve.handle s line with
    | `Reply [ r ] -> String.length r >= 3 && String.equal (String.sub r 0 3) "err"
    | _ -> false
  in
  Alcotest.(check bool) "query before any stream time" true (is_err "paths 0 1 5");
  ignore (run_script s [ "0,1,0,50"; "advance 60" ]);
  Alcotest.(check bool) "unknown node" true (is_err "paths 0 9");
  Alcotest.(check bool) "src = dst" true (is_err "delivery 1 1");
  Alcotest.(check bool) "time after now" true (is_err "paths 0 1 60");
  Alcotest.(check bool) "parse failure" true (is_err "gibberish");
  Alcotest.(check bool) "snapshot without store" true (is_err "snapshot")

(* An id the engine cannot run is a parse error, not a new node: each
   such contact gets one [err] reply, and the session answers every
   later query as if the line had never been sent. *)
let test_server_hostile_ids () =
  let head = [ "0,1,0,50"; "1,2,10,60" ] in
  let tail = [ "advance 100"; "paths 0 1 30"; "delivery 0 1 30"; "stats" ] in
  let clean = run_script (default_server ()) (head @ tail) in
  List.iter
    (fun id ->
      let line = Printf.sprintf "0,%d,20,70" id in
      let s = default_server () in
      let before = run_script s head in
      (match Serve.handle s line with
      | `Reply [ r ] when String.starts_with ~prefix:"err " r -> ()
      | `Reply r | `Stop r ->
        Alcotest.failf "%s: want one err reply, got [%s]" line (String.concat "; " r));
      Alcotest.(check (list string)) line clean (before @ run_script s tail))
    [ max_int; max_int - 1 ]

(* A delivery probe prepares one schedule (degrade, then sort) per
   query, inside the scope whose [Invalid_argument] comes back as an
   [err delivery] reply. The server compiles its fault plan from the
   very window trace it prepares, so a population mismatch cannot be
   provoked through the protocol: the test pins that a faulted probe
   answers, and that [Engine.prepare] raises the mismatch as the
   [Invalid_argument] that scope catches, on the same served window. *)
let test_server_prepare_errors () =
  let spec =
    { Core.Faults.loss = 0.35; crash_rate = 0.02; down_time = 10.; jitter = 0.2; seed = 3L }
  in
  let s = default_server ~faults:spec () in
  let replies = run_script s [ "0,1,0,50"; "1,2,10,60"; "advance 60"; "delivery 0 2 5" ] in
  let starts prefix r =
    String.length r >= String.length prefix
    && String.equal (String.sub r 0 (String.length prefix)) prefix
  in
  Alcotest.(check bool) "faulted probe answers" true (List.exists (starts "probe ") replies);
  Alcotest.(check bool) "no error reply" false (List.exists (starts "err") replies);
  let w = window ~span:1000. () in
  ingest_ok w (c ~a:0 ~b:1 ~s:0. ~e:50.);
  ingest_ok w (c ~a:1 ~b:2 ~s:10. ~e:60.);
  ignore (ok_or_fail "advance" (Window.advance w 60.));
  let wtrace = ok_or_fail "Window.trace" (Window.trace w) in
  let plan =
    Core.Faults.compile ~n_nodes:(Trace.n_nodes wtrace + 1) ~horizon:(Trace.horizon wtrace) spec
  in
  Alcotest.check_raises "mismatched plan"
    (Invalid_argument "Faults.degrade: trace population differs from the plan's") (fun () ->
      ignore (Core.Engine.prepare ~faults:plan wtrace))

let test_server_expiry_observed () =
  let s = default_server ~span:100. () in
  let replies =
    run_script s [ "0,1,0,60"; "advance 50"; "inject 0 1"; "5,6,500,510"; "advance 600" ]
  in
  (* The injected message's creation instant (50) slid behind the
     window (t0 = 500): it must expire, never deliver. *)
  Alcotest.(check bool) "expiry reported" true
    (List.exists (fun r -> String.length r >= 7 && String.equal (String.sub r 0 7) "expired") replies);
  let summary = Serve.summary s in
  Alcotest.(check int) "expired counter" 1 summary.Serve.s_expired;
  Alcotest.(check int) "nothing live" 0 summary.Serve.s_live

(* Eviction-then-reinsert: a node's contacts vanish from the window
   entirely, the population ratchet keeps its id alive, and later
   contacts reinsert it. Queries spanning those reconfigurations must
   match a fresh server fed the same stream: no session state leaks
   across window reconfigurations. *)
let test_server_evict_then_reinsert () =
  let s = default_server ~span:100. () in
  let prefix =
    [
      "0,1,0,40";
      "1,2,20,60";
      "advance 90";
      "delivery 0 2";
      (* slide node 0 and 1's contacts out entirely *)
      "3,4,200,260";
      "advance 290";
      "delivery 3 4";
      (* reinsert node 0 with a fresh contact *)
      "0,4,300,360";
      "advance 380";
    ]
  in
  let tail = [ "delivery 0 4"; "paths 0 4 310" ] in
  ignore (run_script s prefix);
  let got = run_script s tail in
  let fresh = default_server ~span:100. () in
  ignore (run_script fresh prefix);
  let want = run_script fresh tail in
  Alcotest.(check (list string)) "replies = fresh server" want got;
  Alcotest.(check int) "population ratchet survived eviction" 5
    (Serve.summary s).Serve.s_nodes

(* Serving a sparse population costs memory linear in it: the window
   ratchets up to 2048 nodes from ids 0, 1 and 2047, and answering
   [delivery] over three strategies plus [stats] stays far below one
   n x n matrix (32 MiB). *)
let test_server_alloc_linear () =
  let s = default_server ~strategies:[ "epidemic"; "direct"; "two-hop" ] () in
  ignore (run_script s [ "0,1,0,50"; "1,2047,20,60"; "0,2047,70,90"; "advance 100" ]);
  let before = Gc.allocated_bytes () in
  let replies = run_script s [ "delivery 0 1"; "stats" ] in
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check int) "population ratchet" 2048 (Serve.summary s).Serve.s_nodes;
  Alcotest.(check bool) "no error replies" false
    (List.exists (fun r -> String.length r >= 3 && String.equal (String.sub r 0 3) "err") replies);
  if bytes >= 1e6 then
    Alcotest.failf "delivery and stats on 2048 nodes allocated %.0f bytes (bound 1 MB)" bytes

(* The metrics surface: the 'metrics' verb answers a valid OpenMetrics
   exposition whose value metrics are byte-identical for any jobs ×
   chunk schedule — the issue's acceptance criterion at library level
   (the CLI-level transcript goldens pin the same bytes end to end). *)
let test_server_metrics_grid () =
  let strategies = [ "direct"; "epidemic" ] in
  let text_for ~jobs ?chunk () =
    let s = default_server ~jobs ?chunk ~strategies () in
    ignore (run_script s session_script);
    Serve.metrics_text s
  in
  let baseline = text_for ~jobs:1 () in
  (match Core.Openmetrics.validate baseline with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "metrics_text does not validate: %s" msg);
  List.iter
    (fun (jobs, chunk) ->
      Alcotest.(check string)
        (Printf.sprintf "metrics identical at jobs=%d chunk=%d" jobs chunk)
        baseline
        (text_for ~jobs ~chunk ()))
    [ (1, 2); (2, 1); (2, 64); (3, 2) ];
  (* the exposition carries the delivery-delay histogram and the
     per-strategy router families *)
  let has needle =
    List.exists
      (fun l ->
        String.length l >= String.length needle
        && String.equal (String.sub l 0 (String.length needle)) needle)
      (String.split_on_char '\n' baseline)
  in
  Alcotest.(check bool) "delay histogram present" true
    (has "# TYPE psn_serve_delivery_delay_seconds histogram");
  Alcotest.(check bool) "batch histogram present" true
    (has "# TYPE psn_serve_ingest_batch_contacts histogram");
  Alcotest.(check bool) "router observations present" true
    (has "psn_serve_router_observations_total{algo=\"direct\"}")

let test_server_metrics_verb () =
  let s = default_server ~strategies:[ "direct" ] () in
  ignore (run_script s session_script);
  match Serve.handle s "metrics" with
  | `Stop _ -> Alcotest.fail "metrics must not stop the session"
  | `Reply lines ->
    Alcotest.(check bool) "non-empty reply" true (List.length lines > 0);
    (match Core.Openmetrics.validate (String.concat "\n" lines ^ "\n") with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "metrics reply does not validate: %s" msg);
    Alcotest.(check string) "reply equals metrics_text"
      (Serve.metrics_text s)
      (String.concat "\n" lines ^ "\n")

let test_server_stats_strategy_table () =
  let s = default_server ~strategies:[ "direct"; "epidemic" ] () in
  let replies = run_script s session_script in
  let strat_lines =
    List.filter
      (fun r -> String.length r >= 6 && String.equal (String.sub r 0 6) "strat ")
      replies
  in
  Alcotest.(check int) "one line per strategy" 2 (List.length strat_lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) (l ^ " carries the EWMA fields") true
        (List.for_all
           (fun field ->
             let fl = String.length field and ll = String.length l in
             let rec go i = i + fl <= ll && (String.equal (String.sub l i fl) field || go (i + 1)) in
             go 0)
           [ "algo="; "obs="; "success="; "loss="; "score=" ]))
    strat_lines

let test_server_snapshot_roundtrip () =
  let half_a = [ "0,1,0,60"; "1,2,30,90"; "advance 80"; "inject 0 2" ] in
  let half_b = [ "2,3,85,150"; "advance 160"; "delivery 1 3 100"; "route"; "stats" ] in
  let original = default_server ~span:1000. () in
  ignore (run_script original half_a);
  let text = Serve.snapshot_text original in
  let restored = ok_or_fail "restore" (Serve.restore text) in
  (* The restored server re-snapshots to the same bytes... *)
  Alcotest.(check string) "snapshot text stable" text (Serve.snapshot_text restored);
  (* ...and continues byte-identically. *)
  let want = run_script original half_b in
  let got = run_script restored half_b in
  Alcotest.(check (list string)) "continuation identical" want got

(* Replace field [i] of the snapshot line that starts with [prefix]. *)
let set_field text ~prefix i v =
  String.split_on_char '\n' text
  |> List.map (fun l ->
         if not (String.starts_with ~prefix l) then l
         else
           String.split_on_char ' ' l
           |> List.mapi (fun j f -> if j = i then v else f)
           |> String.concat " ")
  |> String.concat "\n"

let test_server_restore_rejects_garbage () =
  let reject text =
    match Serve.restore text with
    | Ok _ -> false
    | Error _ -> true
    | exception e -> Alcotest.failf "restore raised %s" (Printexc.to_string e)
  in
  Alcotest.(check bool) "empty" true (reject "");
  Alcotest.(check bool) "bad header" true (reject "psn-serve-snapshot 99\nend\n");
  let s = default_server () in
  ignore (run_script s [ "0,1,0,60"; "1,2,30,90"; "advance 100"; "inject 0 2" ]);
  let text = Serve.snapshot_text s in
  Alcotest.(check bool) "untouched snapshot restores" false (reject text);
  let truncated = String.sub text 0 (String.length text / 2) in
  Alcotest.(check bool) "truncated" true (reject truncated);
  (* Crafted rows that parse: each must be refused by the check the
     live verb that writes such a row runs, not accepted and left to
     raise in a later reply. The live row is message 0 from node 0. *)
  List.iter
    (fun (what, prefix, i, v) ->
      Alcotest.(check bool) what true (reject (set_field text ~prefix i v)))
    [
      ("negative strategy count", "strategies ", 1, "-1");
      ("negative contact count", "contacts ", 1, "-1");
      ("renamed ewma row", "epidemic ", 0, "epidemik");
      ("live destination outside the population", "0 0 ", 2, "99");
      ("live source = destination", "0 0 ", 2, "0");
      ("population over the node-id bound", "clock ", 3, "300000000");
      (* one batch sample of 2 contacts: a total of 2 disagrees with
         its buckets and would serve a non-monotone histogram *)
      ("histogram total above its buckets", "hist batch ", 3, "2");
    ]

(* --- properties --- *)

(* One malformed protocol line, for a live session over nodes 0-5
   whose last contact started at 1050 s. Every line carries at least
   one bad token, so none can be a valid request. With the population
   [pinned] to 6 nodes, id 6 is bad; a growing population would admit
   it as a new node. Ids from the node-id bound up are bad either way.
   In-range ids stay small: some strategy state (Contact_history,
   PRoPHET) is quadratic in the population. *)
let malformed_line ~pinned =
  let open QCheck2.Gen in
  let id = map string_of_int (int_range 0 5) in
  let time = map (Printf.sprintf "%g") (float_range 1100. 1250.) in
  let bad_id =
    oneofl
      ([
         "-1";
         "-42";
         "x";
         "1.5";
         "1e3";
         "nan";
         string_of_int Psn_trace.Node.id_bound;
         string_of_int (max_int - 1);
         string_of_int max_int;
         "99999999999999999999";
       ]
      @ if pinned then [ "6" ] else [])
  in
  let bad_time = oneofl [ "x"; "nan"; "inf"; "-inf"; "1e400"; "-1e400"; "0x"; "1..2"; "--3" ] in
  let fields = String.concat "," in
  let contact_with bad_at field =
    map2
      (fun (a, b, (s, e)) bad ->
        fields (List.mapi (fun i f -> if i = bad_at then bad else f) [ a; b; s; e ]))
      (triple id id (pair time time))
      field
  in
  let verb = oneofl [ "inject"; "paths"; "delivery" ] in
  oneof
    [
      (* wrong arity *)
      map2
        (fun n ts -> fields (List.filteri (fun i _ -> i < n) ts))
        (oneofl [ 2; 3; 5; 6 ])
        (list_repeat 6 time);
      (* a bad endpoint or time in an otherwise well-formed contact *)
      contact_with 0 bad_id;
      contact_with 1 bad_id;
      contact_with 2 bad_time;
      contact_with 3 bad_time;
      (* stray commas *)
      map2
        (fun at line ->
          String.sub line 0 at ^ "," ^ String.sub line at (String.length line - at))
        (oneofl [ 0; 1; 2 ])
        (map2 (fun a t -> fields [ a; "5"; t; "1300" ]) id time);
      map (fun t -> "advance " ^ t ^ ",") time;
      map2 (fun v a -> Printf.sprintf "%s %s,%s 1200" v a a) verb id;
      (* word requests with a bad value or the wrong shape *)
      map (fun t -> "advance " ^ t) bad_time;
      map2 (fun a b -> Printf.sprintf "advance %s %s" a b) time time;
      return "advance";
      map2 (fun v a -> Printf.sprintf "%s %s" v a) verb id;
      map3 (fun v a b -> Printf.sprintf "%s %s %s" v a b) verb id bad_id;
      map3 (fun v a b -> Printf.sprintf "%s %s %s" v b a) verb id bad_id;
      map3 (fun v a t -> Printf.sprintf "%s %s 5 %s" v a t) verb (oneofl [ "0"; "1" ]) bad_time;
      map2 (fun v a -> Printf.sprintf "%s 0 1 1200 %s" v a) verb id;
      oneofl [ "route now"; "stats 1"; "metrics x"; "snapshot now"; "quit 0"; "frobnicate 1 2" ];
    ]

let qcheck_tests =
  let open QCheck2 in
  (* Random monotone contact streams: bounded node ids, nondecreasing
     starts, positive durations — the shape Trace_io files have. *)
  let stream_gen =
    let contact =
      Gen.map3
        (fun a d (s_step, dur) -> (a, d, s_step, dur))
        (Gen.int_range 0 5) (Gen.int_range 1 5)
        (Gen.pair (Gen.int_range 0 30) (Gen.int_range 1 120))
    in
    Gen.map
      (fun raw ->
        let t = ref 0. in
        List.filter_map
          (fun (a, d, s_step, dur) ->
            t := !t +. float_of_int s_step;
            let b = (a + d) mod 7 in
            if a = b then None
            else
              let a, b = (Int.min a b, Int.max a b) in
              Some (c ~a ~b ~s:!t ~e:(!t +. float_of_int dur)))
          raw)
      (Gen.list_size (Gen.int_range 1 40) contact)
  in
  [
    (* The tentpole property: ingesting chunk by chunk (any chunk
       size), the window trace equals the batch restriction of the
       full stream to [start, now) — byte-for-byte once encoded. *)
    Test.make ~count:200 ~name:"chunked window = Trace.restrict of the batch trace"
      ~print:(fun (stream, span, chunk_size) ->
        Printf.sprintf "span=%g chunk=%d contacts=%d" span chunk_size (List.length stream))
      (Gen.triple stream_gen (Gen.oneofl [ 25.; 60.; 150.; 10_000. ]) (Gen.int_range 1 7))
      (fun (stream, span, chunk_size) ->
        let w =
          match Window.create { Window.span; budget = 10_000; policy = Window.Slide; nodes = 0 }
          with
          | Ok w -> w
          | Error msg -> Test.fail_report msg
        in
        (* feed in chunks, advancing between chunks like a server would *)
        List.iteri
          (fun i contact ->
            (match Window.ingest w contact with
            | Ok _ -> ()
            | Error msg -> Test.fail_report msg);
            if (i + 1) mod chunk_size = 0 then
              match Window.advance w (Window.now w) with
              | Ok _ -> ()
              | Error msg -> Test.fail_report msg)
          stream;
        match Window.trace w with
        | Error _ -> Window.now w = 0. || Window.n_nodes w = 0
        | Ok got ->
          let horizon =
            List.fold_left
              (fun acc (ct : Contact.t) -> Float.max acc ct.Contact.t_end)
              (Window.now w) stream
            +. 1.
          in
          let full = Trace.create ~n_nodes:(Window.n_nodes w) ~horizon stream in
          let want = Trace.restrict full ~t0:(Window.start w) ~t1:(Window.now w) in
          String.equal (Codec.encode_trace want) (Codec.encode_trace got));
    (* Budget enforcement: under either policy the live count never
       exceeds the budget, and every ingest is accounted exactly once
       across ingested/dropped. *)
    Test.make ~count:200 ~name:"budget is a hard cap under both policies"
      ~print:(fun (stream, budget, slide) ->
        Printf.sprintf "budget=%d policy=%s contacts=%d" budget
          (if slide then "slide" else "drop")
          (List.length stream))
      (Gen.triple stream_gen (Gen.int_range 1 5) Gen.bool)
      (fun (stream, budget, slide) ->
        let policy = if slide then Window.Slide else Window.Drop in
        let w =
          match Window.create { Window.span = 500.; budget; policy; nodes = 0 } with
          | Ok w -> w
          | Error msg -> Test.fail_report msg
        in
        let within_cap = ref true in
        List.iter
          (fun contact ->
            (match Window.ingest w contact with
            | Ok _ -> ()
            | Error msg -> Test.fail_report msg);
            if Window.size w > budget then within_cap := false)
          stream;
        let counters = Window.counters w in
        !within_cap
        && Window.peak w <= budget
        && counters.Window.ingested + counters.Window.dropped = List.length stream
        && (slide || counters.Window.budget_evicted = 0)
        && (not slide || counters.Window.dropped = 0));
    (* Server-level jobs/chunk invariance: the full query transcript is
       identical whatever the fan-out schedule. *)
    Test.make ~count:25 ~name:"serve transcript identical for any jobs x chunk"
      ~print:(fun (jobs, chunk) -> Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
      (Gen.pair (Gen.oneofl [ 2; 3 ]) (Gen.oneofl [ 1; 2; 64 ]))
      (fun (jobs, chunk) ->
        let baseline = run_script (default_server ~jobs:1 ()) session_script in
        let chunked = run_script (default_server ~jobs ~chunk ()) session_script in
        List.equal String.equal baseline chunked);
    (* Hostile input: every malformed line — wrong arity, non-numeric
       or non-finite fields, negative or huge ids, stray commas — gets
       an [err] reply on a live session and never raises, whether the
       population is pinned or grows with the stream. *)
    Test.make ~count:200 ~name:"malformed lines get err replies, never raise"
      ~print:(fun (pinned, lines) ->
        String.concat "\n" ((if pinned then "nodes=6" else "nodes=0") :: lines))
      Gen.(
        bool >>= fun pinned ->
        pair (return pinned) (list_size (int_range 1 20) (malformed_line ~pinned)))
      (fun (pinned, lines) ->
        let s =
          ok_or_fail "Serve.create"
            (Serve.create
               {
                 Serve.default_config with
                 Serve.window =
                   {
                     Serve.default_config.Serve.window with
                     Window.nodes = (if pinned then 6 else 0);
                   };
               })
        in
        ignore (run_script s session_script);
        List.for_all
          (fun line ->
            match Serve.handle s line with
            | `Reply (first :: _) -> String.starts_with ~prefix:"err " first
            | `Reply [] | `Stop _ -> Test.fail_reportf "no err reply to %S" line
            | exception e -> Test.fail_reportf "%S raised %s" line (Printexc.to_string e))
          lines);
    (* Snapshot/restore at a random cut point: the resumed transcript's
       tail equals the uninterrupted run's. *)
    Test.make ~count:40 ~name:"snapshot cut anywhere resumes byte-identically"
      ~print:(fun cut -> Printf.sprintf "cut=%d" cut)
      (Gen.int_range 0 (List.length session_script))
      (fun cut ->
        let original = default_server () in
        let before = List.filteri (fun i _ -> i < cut) session_script in
        let after = List.filteri (fun i _ -> i >= cut) session_script in
        ignore (run_script original before);
        let restored =
          match Serve.restore (Serve.snapshot_text original) with
          | Ok s -> s
          | Error msg -> Test.fail_report msg
        in
        List.equal String.equal (run_script original after) (run_script restored after));
    (* Hostile snapshots: one token of a real snapshot replaced by a
       bad value (or dropped). [restore] never raises, and a snapshot
       it accepts serves a follow-up session without raising either. *)
    Test.make ~count:300 ~name:"mutated snapshot is an Error or serves, never raises"
      ~print:(fun (cut, at, v, faulted) ->
        Printf.sprintf "cut=%d token=%d value=%S faults=%b" cut at v faulted)
      Gen.(
        quad
          (int_range 0 (List.length session_script))
          (int_bound 10_000)
          (oneofl [ "-1"; "99"; "x"; "nan"; "0x1p+40"; "" ])
          bool)
      (fun (cut, at, v, faulted) ->
        let spec =
          { Core.Faults.loss = 0.3; crash_rate = 0.02; down_time = 10.; jitter = 0.2; seed = 5L }
        in
        let faults = if faulted then Some spec else None in
        let original = default_server ?faults () in
        ignore (run_script original (List.filteri (fun i _ -> i < cut) session_script));
        let lines =
          List.map (String.split_on_char ' ')
            (String.split_on_char '\n' (Serve.snapshot_text original))
        in
        let n_tokens = List.fold_left (fun acc l -> acc + List.length l) 0 lines in
        let at = at mod n_tokens in
        let seen = ref 0 in
        let mutated =
          List.map
            (fun l ->
              String.concat " "
                (List.map
                   (fun tok ->
                     incr seen;
                     if !seen - 1 = at then v else tok)
                   l))
            lines
          |> String.concat "\n"
        in
        match Serve.restore mutated with
        | Error _ -> true
        | Ok s ->
          ignore
            (run_script s
               [ "advance 2000"; "inject 0 1"; "delivery 0 1"; "stats"; "route"; "metrics" ]);
          true
        | exception e -> Test.fail_reportf "restore raised %s" (Printexc.to_string e));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "serve"
    [
      ( "window",
        [
          Alcotest.test_case "config validation" `Quick test_window_validation;
          Alcotest.test_case "monotone ingest, forward advance" `Quick test_window_ordering;
          Alcotest.test_case "fixed population" `Quick test_window_fixed_population;
          Alcotest.test_case "eviction" `Quick test_window_eviction;
          Alcotest.test_case "dead on arrival" `Quick test_window_dead_on_arrival;
          Alcotest.test_case "drop policy" `Quick test_window_drop_policy;
          Alcotest.test_case "slide policy" `Quick test_window_slide_policy;
          Alcotest.test_case "batch equivalence (concrete)" `Quick
            test_window_batch_equivalence_concrete;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "errors" `Quick test_protocol_errors;
        ] );
      ( "multipath",
        [
          Alcotest.test_case "config validation" `Quick test_multipath_validation;
          Alcotest.test_case "explore then exploit" `Quick test_multipath_explore_then_exploit;
          Alcotest.test_case "unknown name raises" `Quick test_multipath_unknown_name;
          Alcotest.test_case "dump/load round-trip" `Quick test_multipath_dump_load_roundtrip;
          Alcotest.test_case "diversity" `Quick test_multipath_diversity;
        ] );
      ( "server",
        [
          Alcotest.test_case "oracle strategies rejected" `Quick test_server_oracle_rejected;
          Alcotest.test_case "unknown strategy rejected" `Quick test_server_unknown_strategy;
          Alcotest.test_case "errors come back as replies" `Quick test_server_errors_are_replies;
          Alcotest.test_case "ids beyond the node-id bound are errors" `Quick
            test_server_hostile_ids;
          Alcotest.test_case "prepare errors" `Quick test_server_prepare_errors;
          Alcotest.test_case "expiry observed" `Quick test_server_expiry_observed;
          Alcotest.test_case "evict then reinsert" `Quick test_server_evict_then_reinsert;
          Alcotest.test_case "allocation linear in the population" `Quick
            test_server_alloc_linear;
          Alcotest.test_case "metrics bit-identical across jobs x chunk" `Quick
            test_server_metrics_grid;
          Alcotest.test_case "metrics verb" `Quick test_server_metrics_verb;
          Alcotest.test_case "stats strategy table" `Quick test_server_stats_strategy_table;
          Alcotest.test_case "snapshot round-trip" `Quick test_server_snapshot_roundtrip;
          Alcotest.test_case "restore rejects garbage" `Quick test_server_restore_rejects_garbage;
        ] );
      ("properties", qcheck_tests);
    ]
