(* Crash-point matrix — the issue's acceptance criterion, end to end
   through the real CLI binary.

   For every dangerous site (store insert windows, manifest rename,
   runner task, engine hot loop) and a spread of --jobs values, a
   sweep is killed by an injected `crash` failpoint (Unix._exit 170,
   no cleanup — the honest stand-in for kill -9), and we then assert:

   - the death really was the injected crash (exit code 170);
   - `store verify` on the survivor store exits 0: recovery at open
     (tmp sweep + intent-journal replay) left no corrupt frame;
   - re-running the same command without the failpoint exits 0 and
     prints output byte-identical to a never-interrupted run, modulo
     the `store ...` report lines whose hit/miss split legitimately
     differs on a resumed run.

   The gc eviction windows get the same treatment through `psn store
   gc --failpoints`. A lookup's window (its journal line appended, the
   fold not yet run) is killed in a cold and a warm run; there `store
   stats` must also count every lookup made before the death, the one
   in flight included. Usage: crash_matrix <psn_cli.exe> <trace-file>. *)

let () =
  if Array.length Sys.argv <> 3 then begin
    prerr_endline "usage: crash_matrix <psn_cli.exe> <trace-file>";
    exit 2
  end

let cli = Filename.quote Sys.argv.(1)
let trace = Filename.quote Sys.argv.(2)

let failures = ref 0

let failf fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.eprintf "FAIL %s\n%!" s)
    fmt

let sh fmt = Printf.ksprintf Sys.command fmt

let rm_rf dir = ignore (sh "rm -rf %s" (Filename.quote dir))

(* Stdout minus the store-report lines (a resumed run reports hits
   where the uninterrupted one reported misses — by design). *)
let canon path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char '\n' s
  |> List.filter (fun l ->
         not (String.length l >= 6 && String.equal (String.sub l 0 6) "store "))
  |> String.concat "\n"

let simulate ?failpoints ~dir ~jobs out =
  let fp =
    match failpoints with
    | None -> ""
    | Some s -> Printf.sprintf " --failpoints %s" (Filename.quote s)
  in
  sh "%s simulate -t %s --seeds 2 -a direct,epidemic -j %d --chunk 1 --store %s --checkpoint 1%s > %s 2>/dev/null"
    cli trace jobs (Filename.quote dir) fp (Filename.quote out)

let verify dir = sh "%s store verify --store %s >/dev/null 2>&1" cli (Filename.quote dir)

let crash_exit = 170

(* The "lifetime: H hit(s), M miss(es)" line of `store stats`. *)
let lifetime dir =
  let out = "cm_stats.out" in
  ignore (sh "%s store stats --store %s > %s 2>/dev/null" cli (Filename.quote dir) out);
  let ic = open_in_bin out in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  List.find_map
    (fun l -> try Some (Scanf.sscanf l "lifetime: %d hit(s), %d miss(es)" (fun h m -> (h, m))) with _ -> None)
    (String.split_on_char '\n' s)
  |> Option.value ~default:(-1, -1)

let show (h, m) = Printf.sprintf "%d hit(s), %d miss(es)" h m

let () =
  (* The uninterrupted reference output (scheduling-independent, so
     one baseline serves every jobs value). *)
  rm_rf "cm_base";
  let code = simulate ~dir:"cm_base" ~jobs:1 "cm_base.out" in
  if code <> 0 then failf "baseline simulate exited %d" code;
  let baseline = canon "cm_base.out" in
  if String.length baseline = 0 then failf "baseline produced no output";

  (* site, failpoint rule, jobs values to kill under. The store's
     single-writer sites are scheduling-independent by construction,
     so jobs=1 suffices; the task/engine sites also crash under a
     parallel pool. *)
  let matrix =
    [
      ("store.insert.pre_journal", "crash@1", [ 1 ]);
      ("store.insert.pre_rename", "crash@2", [ 1 ]);
      ("store.insert.post_rename", "crash@1", [ 1 ]);
      ("store.manifest.pre_rename", "crash@2", [ 1 ]);
      ("runner.task", "crash@2", [ 1; 4 ]);
      ("engine.contact", "crash@5", [ 1; 4 ]);
    ]
  in
  List.iter
    (fun (site, rule, jobs_list) ->
      List.iter
        (fun jobs ->
          let label = Printf.sprintf "%s=%s jobs=%d" site rule jobs in
          let dir = "cm_run" in
          rm_rf dir;
          let code =
            simulate ~failpoints:(Printf.sprintf "%s=%s" site rule) ~dir ~jobs "cm_crash.out"
          in
          if code <> crash_exit then failf "%s: crash run exited %d, want %d" label code crash_exit
          else begin
            let v = verify dir in
            if v <> 0 then failf "%s: store verify exited %d after crash" label v;
            let r = simulate ~dir ~jobs "cm_resume.out" in
            if r <> 0 then failf "%s: resume exited %d" label r
            else if not (String.equal (canon "cm_resume.out") baseline) then
              failf "%s: resumed output differs from uninterrupted run" label
          end)
        jobs_list)
    matrix;

  (* The lookup window: a lookup's H/M line is appended but the fold
     has not run. Lookups come from the calling domain in sweep order
     at any --jobs, so the k-th one is the same lookup everywhere. The
     uninterrupted reference is a cold run then a warm one; the warm
     run's [n] lookups are all hits. *)
  rm_rf "cm_lk_ref";
  if simulate ~dir:"cm_lk_ref" ~jobs:1 "cm_lk_ref.out" <> 0 then failf "lookup reference cold run failed";
  let ((cold_h, cold_m) as cold) = lifetime "cm_lk_ref" in
  if simulate ~dir:"cm_lk_ref" ~jobs:1 "cm_lk_ref.out" <> 0 then failf "lookup reference warm run failed";
  let ((warm_h, warm_m) as warm) = lifetime "cm_lk_ref" in
  let n = warm_h + warm_m - cold_h - cold_m in
  if n <= 0 || warm_m <> cold_m then failf "lookup reference: warm run was not all hits (%s then %s)" (show cold) (show warm);
  (* (warm store?, k, lifetime after the crash) *)
  let cases =
    [
      (false, 1, (0, 1));
      (true, 1, (cold_h + 1, cold_m));
      (true, n, warm);
    ]
  in
  List.iter
    (fun (warm_start, k, after_crash) ->
      List.iter
        (fun jobs ->
          let label =
            Printf.sprintf "store.lookup.pre_fold=crash@%d %s jobs=%d" k
              (if warm_start then "warm" else "cold") jobs
          in
          let dir = "cm_lk" in
          rm_rf dir;
          if warm_start && simulate ~dir ~jobs "cm_lk.out" <> 0 then failf "%s: populate failed" label;
          let code =
            simulate ~failpoints:(Printf.sprintf "store.lookup.pre_fold=crash@%d" k) ~dir ~jobs "cm_crash.out"
          in
          if code <> crash_exit then failf "%s: crash run exited %d, want %d" label code crash_exit
          else begin
            let v = verify dir in
            if v <> 0 then failf "%s: store verify exited %d after crash" label v;
            let got = lifetime dir in
            if got <> after_crash then
              failf "%s: lifetime after the crash is %s, want %s" label (show got) (show after_crash);
            let r = simulate ~dir ~jobs "cm_resume.out" in
            if r <> 0 then failf "%s: rerun exited %d" label r
            else if not (String.equal (canon "cm_resume.out") baseline) then
              failf "%s: rerun output differs from uninterrupted run" label;
            (* the rerun adds what an uninterrupted run of it adds *)
            let want =
              if warm_start then (fst after_crash + n, snd after_crash)
              else (cold_h + fst after_crash, cold_m + snd after_crash)
            in
            let got = lifetime dir in
            if got <> want then failf "%s: lifetime after the rerun is %s, want %s" label (show got) (show want)
          end)
        [ 1; 2; 4 ])
    cases;

  (* gc eviction windows: populate, kill mid-gc, prove recovery and
     that finishing the gc still works. *)
  List.iter
    (fun site ->
      let dir = "cm_gc" in
      rm_rf dir;
      let code = simulate ~dir ~jobs:1 "cm_gc.out" in
      if code <> 0 then failf "gc populate exited %d" code;
      let code =
        sh "%s store gc --store %s --max-bytes 0 --failpoints %s >/dev/null 2>&1" cli
          (Filename.quote dir)
          (Filename.quote (Printf.sprintf "%s=crash@1" site))
      in
      if code <> crash_exit then failf "%s: gc crash exited %d, want %d" site code crash_exit
      else begin
        let v = verify dir in
        if v <> 0 then failf "%s: store verify exited %d after gc crash" site v;
        let g = sh "%s store gc --store %s --max-bytes 0 >/dev/null 2>&1" cli (Filename.quote dir) in
        if g <> 0 then failf "%s: finishing gc exited %d" site g;
        let v2 = verify dir in
        if v2 <> 0 then failf "%s: store verify exited %d after finished gc" site v2
      end)
    [ "store.gc.pre_remove"; "store.gc.post_remove" ];

  (* Flight recorder: a serve session armed with --flight dies on an
     injected crash (exit 170); the post-mortem dump must exist and
     pass `psn metrics check --flight` with at least one ring event
     (the protocol lines noted before the death). *)
  (let script = "cm_serve.script" in
   let oc = open_out script in
   output_string oc
     "0,1,0,60\n1,2,30,90\n2,3,80,150\nadvance 100\ninject 0 3\n0,3,120,130\nadvance 200\nquit\n";
   close_out oc;
   let dump = "cm_flight.json" in
   if Sys.file_exists dump then Sys.remove dump;
   let code =
     sh "%s serve --script %s --window 200 --flight %s --failpoints engine.contact=crash@1 >/dev/null 2>&1"
       cli (Filename.quote script) (Filename.quote dump)
   in
   if code <> crash_exit then failf "flight: serve crash exited %d, want %d" code crash_exit
   else if not (Sys.file_exists dump) then failf "flight: no post-mortem dump at %s" dump
   else begin
     let check = sh "%s metrics check --flight %s >/dev/null 2>&1" cli (Filename.quote dump) in
     if check <> 0 then failf "flight: metrics check --flight exited %d" check;
     let ic = open_in_bin dump in
     let text = really_input_string ic (in_channel_length ic) in
     close_in ic;
     let has needle =
       let nl = String.length needle and tl = String.length text in
       let rec go i = i + nl <= tl && (String.equal (String.sub text i nl) needle || go (i + 1)) in
       go 0
     in
     if not (has "\"seq\"") then failf "flight: dump has no ring events";
     if not (has "failpoint crash at engine.contact") then
       failf "flight: dump reason does not name the crash site"
   end);

  if !failures > 0 then begin
    Printf.eprintf "crash matrix: %d scenario(s) failed\n%!" !failures;
    exit 1
  end;
  print_endline "crash matrix: all scenarios recovered and resumed bit-identically"
