(* Tests for the psn_robust library: failpoint plan parsing and
   verdict semantics, the install/trigger lifecycle, and cooperative
   interrupts. Crash actions and the CLI's exit codes are exercised by
   the crash-matrix executable, not here (a crash kills the test
   runner by design). *)

module Failpoint = Core.Failpoint
module Interrupt = Core.Interrupt

(* Every test leaves the process-global plan uninstalled, whatever
   happens mid-test, so tests stay independent. *)
let with_plan spec f =
  match Failpoint.parse spec with
  | Error msg -> Alcotest.failf "parse %S: %s" spec msg
  | Ok plan ->
    Failpoint.install plan;
    Fun.protect ~finally:Failpoint.uninstall f

let fires_on site ?key () =
  match Failpoint.trigger ?key site with
  | () -> false
  | exception Failpoint.Injected _ -> true

(* --- parsing --- *)

let test_parse_ok () =
  with_plan "a.site=error" (fun () ->
      (match Failpoint.trigger "a.site" with
      | () -> Alcotest.fail "error site did not raise"
      | exception Failpoint.Injected { site } ->
        Alcotest.(check string) "error names its site" "a.site" site);
      Alcotest.(check bool) "other site silent" false (fires_on "a" ()));
  with_plan " y=error@2 , z=crash%0.5 " (fun () ->
      Alcotest.(check bool) "spaced clause, first hit silent" false (fires_on "y" ());
      Alcotest.(check bool) "spaced clause, second hit fires" true (fires_on "y" ()))

let test_parse_errors () =
  let rejected spec =
    match Failpoint.parse spec with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "empty spec" true (rejected "");
  Alcotest.(check bool) "commas only" true (rejected " , ,");
  Alcotest.(check bool) "no equals" true (rejected "just-a-site");
  Alcotest.(check bool) "empty site name" true (rejected "=error");
  Alcotest.(check bool) "unknown action" true (rejected "s=explode");
  Alcotest.(check bool) "bad hit index" true (rejected "s=error@0");
  Alcotest.(check bool) "non-integer hit" true (rejected "s=error@x");
  Alcotest.(check bool) "no flaky action" true (rejected "s=flaky");
  Alcotest.(check bool) "no off action" true (rejected "s=off");
  Alcotest.(check bool) "no attempt rule" true (rejected "s=error*2");
  Alcotest.(check bool) "probability above 1" true (rejected "s=error%1.5");
  Alcotest.(check bool) "probability not a number" true (rejected "s=error%p");
  Alcotest.(check bool) "duplicate site" true (rejected "s=error,s=crash@1");
  match Failpoint.parse "s=explode" with
  | Error msg ->
    Alcotest.(check bool) "error names the clause" true
      (String.length msg > 0 && String.equal (String.sub msg 0 16) "failpoint clause")
  | Ok _ -> Alcotest.fail "accepted unknown action"

(* --- trigger semantics --- *)

let test_disabled_is_noop () =
  Failpoint.uninstall ();
  (* With no plan (and after uninstall) any site is silent. *)
  Failpoint.trigger "store.insert.pre_rename";
  with_plan "a=error" (fun () ->
      Alcotest.(check bool) "other sites silent" false (fires_on "b" ()));
  Failpoint.trigger "a" (* uninstalled again by with_plan *)

let test_on_hit_rule () =
  with_plan "a=error@3" (fun () ->
      let verdicts = List.init 5 (fun _ -> fires_on "a" ()) in
      Alcotest.(check (list bool)) "only the 3rd hit" [ false; false; true; false; false ]
        verdicts)

let test_prob_rule () =
  with_plan "never=error%0,always=error%1" (fun () ->
      for _ = 1 to 20 do
        Alcotest.(check bool) "p=0 never fires" false (fires_on "never" ());
        Alcotest.(check bool) "p=1 always fires" true (fires_on "always" ())
      done);
  (* Verdicts are a pure function of (seed, site, key):
     re-triggering the same key repeats the verdict, and over many keys
     the firing rate tracks p. *)
  let verdict ~seed ~key =
    match Failpoint.parse ~seed "s=error%0.4" with
    | Error msg -> Alcotest.fail msg
    | Ok plan ->
      Failpoint.install plan;
      Fun.protect ~finally:Failpoint.uninstall (fun () -> fires_on "s" ~key ())
  in
  let keys = List.init 200 Int64.of_int in
  let first = List.map (fun key -> verdict ~seed:5L ~key) keys in
  let again = List.map (fun key -> verdict ~seed:5L ~key) keys in
  Alcotest.(check (list bool)) "same seed, same verdicts" first again;
  let fired = List.length (List.filter Fun.id first) in
  Alcotest.(check bool) (Printf.sprintf "rate %d/200 near 80" fired) true
    (fired > 50 && fired < 110);
  let other = List.map (fun key -> verdict ~seed:6L ~key) keys in
  Alcotest.(check bool) "different seed, different schedule" false
    (List.equal Bool.equal first other)

let test_describe () =
  Alcotest.(check string) "injected"
    "injected permanent failure at s"
    (Failpoint.describe (Failpoint.Injected { site = "s" }));
  Alcotest.(check string) "other exceptions fall back"
    (Printexc.to_string Stdlib.Not_found)
    (Failpoint.describe Stdlib.Not_found)

(* --- interrupts --- *)

let test_interrupt_exit_codes () =
  Alcotest.(check int) "SIGINT" 130 (Interrupt.exit_code 2);
  Alcotest.(check int) "SIGTERM" 143 (Interrupt.exit_code 15)

let test_interrupt_check_noop () =
  (* Without install, check must be safe and silent. *)
  Interrupt.uninstall ();
  Interrupt.check ()

let test_interrupt_signal () =
  Interrupt.install ();
  Fun.protect ~finally:Interrupt.uninstall (fun () ->
      Interrupt.check ();
      (* first install, nothing pending *)
      Unix.kill (Unix.getpid ()) Sys.sigint;
      (* OCaml delivers signals at safe points; spin until the handler
         has run (bounded so a regression fails rather than hangs). *)
      let rec wait n =
        if n = 0 then Alcotest.fail "signal never delivered"
        else
          match Interrupt.check () with
          | () ->
            ignore (Sys.opaque_identity (ref n));
            wait (n - 1)
          | exception Interrupt.Interrupted signal -> signal
      in
      Alcotest.(check int) "signal number" 2 (wait 1_000_000);
      (* the flag stays set until uninstall *)
      (match Interrupt.check () with
      | () -> Alcotest.fail "check did not raise again"
      | exception Interrupt.Interrupted n -> Alcotest.(check int) "still pending" 2 n);
      (* uninstall clears the flag *)
      Interrupt.uninstall ();
      Interrupt.check ())

(* --- interrupts through the sweep layer --- *)

(* Send SIGINT to this process and spin until the handler has set the
   flag (OCaml runs handlers at safe points; bounded so a regression
   fails rather than hangs). *)
let await_sigint () =
  Unix.kill (Unix.getpid ()) Sys.sigint;
  let rec wait n =
    if n = 0 then Alcotest.fail "signal never delivered"
    else
      match Interrupt.check () with
      | () ->
        ignore (Sys.opaque_identity (ref n));
        wait (n - 1)
      | exception Interrupt.Interrupted _ -> ()
  in
  wait 1_000_000

let expect_sigint what f =
  match f () with
  | _ -> Alcotest.failf "%s finished despite a pending SIGINT" what
  | exception Interrupt.Interrupted n -> Alcotest.(check int) what 2 n

let sweep_trace =
  Core.Trace.create ~n_nodes:6 ~horizon:900.
    (List.init 40 (fun i ->
         let a = i mod 6 and b = (i + 1 + (i / 6)) mod 6 in
         let a, b = if a = b then (a, (b + 1) mod 6) else (a, b) in
         let t = float_of_int (i * 20) in
         Core.Contact.make ~a ~b ~t_start:t ~t_end:(t +. 15.)))

let sweep_spec seeds =
  {
    Core.Runner.workload = Core.Experiments.paper_workload sweep_trace;
    seeds = Core.Runner.default_seeds seeds;
  }

let epidemic_entry =
  match Core.Registry.find "epidemic" with Ok e -> e | Error msg -> Alcotest.fail msg

(* A new, empty store per call, so reruns never see an earlier run's
   cells. *)
let fresh_store () =
  Core.Store.open_ ~dir:(Filename.temp_dir ~temp_dir:Filename.current_dir_name "store_test_" "") ()

let caches st seeds =
  Core.Experiments.entry_caches st ~trace:sweep_trace ~workload:(sweep_spec seeds).workload
    [ epidemic_entry ]

(* A pending signal stops a sweep on entry, with or without a store,
   and even when every cell would be a cache hit. The model tables,
   which run no sweep, stop inside their Monte Carlo average and ODE
   solve. *)
let test_sweeps_notice_pending_signal () =
  let st = fresh_store () in
  let stored () =
    Core.Runner.outcomes_many ~jobs:1 ~stores:(caches st 3) ~trace:sweep_trace
      ~spec:(sweep_spec 3) ~factories:[ epidemic_entry.factory ] ()
  in
  ignore (stored ());
  Interrupt.install ();
  Fun.protect ~finally:Interrupt.uninstall (fun () ->
      await_sigint ();
      expect_sigint "storeless outcomes_many" (fun () ->
          Core.Runner.outcomes_many ~jobs:1 ~trace:sweep_trace ~spec:(sweep_spec 3)
            ~factories:[ epidemic_entry.factory ] ());
      expect_sigint "storeless enumeration_study" (fun () ->
          Core.Experiments.enumeration_study
            ~exec:{ Core.Experiments.default_exec with jobs = Some 1 }
            ~scale:{ Core.Experiments.default_scale with n_messages = 2; k = 10 }
            { Core.Experiments.name = "test"; label = "test"; seed = 0L; trace = sweep_trace });
      expect_sigint "all-hit stored sweep" stored;
      expect_sigint "Monte Carlo average" (fun () ->
          Core.Montecarlo.average_runs { Core.Homogeneous.n = 20; lambda = 0.5 }
            ~rng:(Core.Rng.create ~seed:5L ()) ~runs:2 ~sample_times:[ 1. ]);
      expect_sigint "ODE solve" (fun () ->
          Core.Ode.rk4 ~f:(fun ~t:_ ~y -> y) ~y0:[| 1. |] ~t0:0. ~t1:1. ~steps:10))

(* A signal mid-sweep: the task running when it lands completes, the
   rest of its checkpoint round fails fast, the completed cells are
   stored, and a rerun replays them bit-identically. *)
let test_interrupted_sweep_keeps_completed_cells () =
  let st = fresh_store () in
  let seeds = 12 in
  let calls = ref 0 in
  let signalling trace =
    incr calls;
    (* The sixth run (seed index 5, second round of four) is in flight
       when the signal lands. *)
    if !calls = 6 then await_sigint ();
    epidemic_entry.factory trace
  in
  Interrupt.install ();
  Fun.protect ~finally:Interrupt.uninstall (fun () ->
      expect_sigint "checkpointed sweep" (fun () ->
          Core.Runner.outcomes_many ~jobs:1 ~chunk:1 ~checkpoint:4 ~stores:(caches st seeds)
            ~trace:sweep_trace ~spec:(sweep_spec seeds) ~factories:[ signalling ] ()));
  Alcotest.(check int) "runs started before the signal" 6 !calls;
  Alcotest.(check int) "completed cells stored" 6 (Core.Store.stats st).entries;
  let counted = ref 0 in
  let counting trace =
    incr counted;
    epidemic_entry.factory trace
  in
  let encode grid = List.map (List.map Core.Store_codec.encode_outcome) grid in
  let resumed =
    Core.Runner.outcomes_many ~jobs:2 ~checkpoint:4 ~stores:(caches st seeds)
      ~trace:sweep_trace ~spec:(sweep_spec seeds) ~factories:[ counting ] ()
  in
  Alcotest.(check int) "only the missing cells recomputed" 6 !counted;
  let fresh =
    Core.Runner.outcomes_many ~jobs:1 ~trace:sweep_trace ~spec:(sweep_spec seeds)
      ~factories:[ epidemic_entry.factory ] ()
  in
  Alcotest.(check (list (list string))) "resumed = uninterrupted" (encode fresh) (encode resumed)

let () =
  Alcotest.run "psn_robust"
    [
      ( "parse",
        [
          Alcotest.test_case "well-formed specs" `Quick test_parse_ok;
          Alcotest.test_case "malformed specs" `Quick test_parse_errors;
        ] );
      ( "trigger",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "@N hit rule" `Quick test_on_hit_rule;
          Alcotest.test_case "%P probability rule" `Quick test_prob_rule;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
      ( "interrupt",
        [
          Alcotest.test_case "exit codes" `Quick test_interrupt_exit_codes;
          Alcotest.test_case "check without install" `Quick test_interrupt_check_noop;
          Alcotest.test_case "signal sets the flag" `Quick test_interrupt_signal;
          Alcotest.test_case "sweeps notice a pending signal" `Quick
            test_sweeps_notice_pending_signal;
          Alcotest.test_case "interrupted sweep keeps completed cells" `Quick
            test_interrupted_sweep_keeps_completed_cells;
        ] );
    ]
