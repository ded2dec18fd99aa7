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
      Alcotest.(check bool) "named site fires" true (fires_on "a.site" ());
      Alcotest.(check bool) "other site silent" false (fires_on "a" ()));
  with_plan " x=off , y=flaky@2, z=crash%0.5 " (fun () ->
      Alcotest.(check bool) "off clause silent" false (fires_on "x" ()))

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
  Alcotest.(check bool) "bad attempt count" true (rejected "s=flaky*0");
  Alcotest.(check bool) "probability above 1" true (rejected "s=error%1.5");
  Alcotest.(check bool) "probability not a number" true (rejected "s=error%p");
  Alcotest.(check bool) "duplicate site" true (rejected "s=error,s=flaky");
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
      Alcotest.(check bool) "other sites silent" false (fires_on "b" ());
      Alcotest.(check bool) "off never fires" false
        (match Failpoint.parse "a=off" with
        | Ok p ->
          Failpoint.install p;
          fires_on "a" ()
        | Error msg -> Alcotest.fail msg));
  Failpoint.trigger "a" (* uninstalled again by with_plan *)

let test_error_vs_flaky () =
  with_plan "a=error,b=flaky" (fun () ->
      (match Failpoint.trigger "a" with
      | () -> Alcotest.fail "error site did not raise"
      | exception Failpoint.Injected { site; transient } ->
        Alcotest.(check string) "site name" "a" site;
        Alcotest.(check bool) "permanent" false transient);
      match Failpoint.trigger "b" with
      | () -> Alcotest.fail "flaky site did not raise"
      | exception (Failpoint.Injected { transient; _ } as e) ->
        Alcotest.(check bool) "transient" true transient;
        Alcotest.(check bool) "is_transient" true (Failpoint.is_transient e))

let test_on_hit_rule () =
  with_plan "a=error@3" (fun () ->
      let verdicts = List.init 5 (fun _ -> fires_on "a" ()) in
      Alcotest.(check (list bool)) "only the 3rd hit" [ false; false; true; false; false ]
        verdicts)

let test_first_attempts_rule () =
  with_plan "a=flaky*2" (fun () ->
      let at n = Failpoint.with_attempt n (fun () -> fires_on "a" ()) in
      Alcotest.(check bool) "attempt 0 fails" true (at 0);
      Alcotest.(check bool) "attempt 1 fails" true (at 1);
      Alcotest.(check bool) "attempt 2 succeeds" false (at 2);
      (* default attempt (no with_attempt wrapper) is 0 *)
      Alcotest.(check bool) "bare trigger fails" true (fires_on "a" ()))

let test_with_attempt_restores () =
  Alcotest.(check int) "nested attempts restore" 7
    (Failpoint.with_attempt 7 (fun () ->
         (try Failpoint.with_attempt 9 (fun () -> failwith "boom") with Failure _ -> ());
         with_plan "a=flaky*8" (fun () ->
             if not (fires_on "a" ()) then Alcotest.fail "outer attempt not restored");
         7))

let test_prob_rule () =
  with_plan "never=error%0,always=error%1" (fun () ->
      for _ = 1 to 20 do
        Alcotest.(check bool) "p=0 never fires" false (fires_on "never" ());
        Alcotest.(check bool) "p=1 always fires" true (fires_on "always" ())
      done);
  (* Verdicts are a pure function of (seed, site, key, attempt):
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
  Alcotest.(check string) "transient"
    "injected transient failure at s"
    (Failpoint.describe (Failpoint.Injected { site = "s"; transient = true }));
  Alcotest.(check string) "permanent"
    "injected permanent failure at s"
    (Failpoint.describe (Failpoint.Injected { site = "s"; transient = false }));
  Alcotest.(check string) "other exceptions fall back"
    (Printexc.to_string Stdlib.Not_found)
    (Failpoint.describe Stdlib.Not_found)

let test_is_transient_other () =
  Alcotest.(check bool) "arbitrary exn" false (Failpoint.is_transient Stdlib.Not_found)

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
          Alcotest.test_case "error vs flaky" `Quick test_error_vs_flaky;
          Alcotest.test_case "@N hit rule" `Quick test_on_hit_rule;
          Alcotest.test_case "*N attempt rule" `Quick test_first_attempts_rule;
          Alcotest.test_case "with_attempt restores" `Quick test_with_attempt_restores;
          Alcotest.test_case "%P probability rule" `Quick test_prob_rule;
          Alcotest.test_case "describe" `Quick test_describe;
          Alcotest.test_case "is_transient on other exns" `Quick test_is_transient_other;
        ] );
      ( "interrupt",
        [
          Alcotest.test_case "exit codes" `Quick test_interrupt_exit_codes;
          Alcotest.test_case "check without install" `Quick test_interrupt_check_noop;
          Alcotest.test_case "signal sets the flag" `Quick test_interrupt_signal;
        ] );
    ]
