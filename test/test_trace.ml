(* Tests for the psn_trace library: contact records, trace queries,
   serialisation round-trips, the synthetic generator's statistical
   calibration, and the dataset presets. *)

module Contact = Core.Contact
module Trace = Core.Trace
module Trace_io = Core.Trace_io
module Generator = Core.Generator
module Dataset = Core.Dataset
module Node = Core.Node
module Rng = Core.Rng

let feps = Alcotest.float 1e-9

let small_trace () =
  Trace.create ~n_nodes:4 ~horizon:100.
    [
      Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:20.;
      Contact.make ~a:1 ~b:2 ~t_start:30. ~t_end:45.;
      Contact.make ~a:0 ~b:1 ~t_start:50. ~t_end:60.;
      Contact.make ~a:2 ~b:3 ~t_start:70. ~t_end:95.;
    ]

(* --- Contact --- *)

let test_contact_normalises () =
  let c = Contact.make ~a:5 ~b:2 ~t_start:0. ~t_end:1. in
  Alcotest.(check int) "a" 2 c.Contact.a;
  Alcotest.(check int) "b" 5 c.Contact.b

let test_contact_errors () =
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Contact.make: self-contact" (fun () ->
      ignore (Contact.make ~a:1 ~b:1 ~t_start:0. ~t_end:1.));
  expect "Contact.make: empty or inverted interval" (fun () ->
      ignore (Contact.make ~a:0 ~b:1 ~t_start:5. ~t_end:5.));
  expect "Contact.make: negative node id" (fun () ->
      ignore (Contact.make ~a:(-1) ~b:1 ~t_start:0. ~t_end:1.))

let test_contact_queries () =
  let c = Contact.make ~a:0 ~b:3 ~t_start:10. ~t_end:25. in
  Alcotest.check feps "duration" 15. (Contact.duration c);
  Alcotest.(check bool) "overlaps" true (Contact.overlaps c ~t0:0. ~t1:11.);
  Alcotest.(check bool) "no overlap" false (Contact.overlaps c ~t0:25. ~t1:30.)

(* --- Trace --- *)

let test_trace_counts_and_rates () =
  let t = small_trace () in
  Alcotest.(check int) "n contacts" 4 (Trace.n_contacts t);
  Alcotest.(check (array int)) "per-node counts" [| 2; 3; 2; 1 |] (Trace.contact_counts t);
  Alcotest.check feps "rate node 1" 0.03 (Trace.contact_rates t).(1)

let test_trace_sorted_and_valid () =
  let t = small_trace () in
  (match Trace.validate t with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "validate: %s" msg);
  let contacts = Trace.contacts t in
  for i = 1 to Array.length contacts - 1 do
    if Contact.compare_by_start contacts.(i - 1) contacts.(i) > 0 then
      Alcotest.fail "contacts not sorted"
  done

let test_trace_restrict () =
  let t = small_trace () in
  let sub = Trace.restrict t ~t0:25. ~t1:75. in
  Alcotest.check feps "horizon" 50. (Trace.horizon sub);
  Alcotest.(check int) "clipped contact count" 3 (Trace.n_contacts sub);
  (* the 50-60 contact becomes 25-35 in the re-based window *)
  let c = (Trace.contacts sub).(1) in
  Alcotest.check feps "re-based start" 25. c.Contact.t_start

let test_trace_clips_horizon () =
  let t =
    Trace.create ~n_nodes:2 ~horizon:10. [ Contact.make ~a:0 ~b:1 ~t_start:5. ~t_end:50. ]
  in
  let c = (Trace.contacts t).(0) in
  Alcotest.check feps "clipped end" 10. c.Contact.t_end

let test_trace_create_errors () =
  Alcotest.check_raises "node out of range"
    (Invalid_argument "Trace.create: contact references node outside population") (fun () ->
      ignore
        (Trace.create ~n_nodes:2 ~horizon:10. [ Contact.make ~a:0 ~b:5 ~t_start:0. ~t_end:1. ]))

let test_trace_time_series () =
  let t = small_trace () in
  let ts = Trace.contact_time_series t ~bin:25. in
  Alcotest.(check (array int)) "starts per bin" [| 1; 1; 2; 0 |] (Core.Timeseries.counts ts)

let test_median_rate () =
  let t = small_trace () in
  (* counts 2,3,2,1 over 100 s -> rates 0.02,0.03,0.02,0.01; median 0.02 *)
  Alcotest.check feps "median rate" 0.02 (Trace.median_rate t)

(* --- Trace_io --- *)

let test_io_roundtrip () =
  let kinds = [| Node.Mobile; Node.Stationary; Node.Mobile; Node.Stationary |] in
  let t =
    Trace.create ~n_nodes:4 ~horizon:100. ~kinds
      [
        Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:20.;
        Contact.make ~a:2 ~b:3 ~t_start:30.5 ~t_end:45.25;
      ]
  in
  match Trace_io.of_string (Trace_io.to_string t) with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok t' ->
    Alcotest.(check int) "nodes" 4 (Trace.n_nodes t');
    Alcotest.check feps "horizon" 100. (Trace.horizon t');
    Alcotest.(check int) "contacts" 2 (Trace.n_contacts t');
    let kinds = Trace.kinds t' in
    Alcotest.(check bool) "kind 1 stationary" true (Node.equal_kind kinds.(1) Node.Stationary);
    Alcotest.(check bool) "kind 0 mobile" true (Node.equal_kind kinds.(0) Node.Mobile);
    let c = (Trace.contacts t').(1) in
    Alcotest.check feps "contact end survives" 45.25 c.Contact.t_end

let test_io_missing_header () =
  match Trace_io.of_string "0,1,1,2\n" with
  | Ok _ -> Alcotest.fail "accepted header-less input"
  | Error msg -> Alcotest.(check bool) "mentions nodes" true (String.length msg > 0)

let test_io_bad_line () =
  let text = "# psn-trace v1\n# nodes 2\n# horizon 10\nnot,a,contact\n" in
  match Trace_io.of_string text with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ()

let test_io_file_roundtrip () =
  let t = small_trace () in
  let path = Filename.temp_file "psn" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save t ~path;
      match Trace_io.load ~path with
      | Ok t' -> Alcotest.(check int) "contacts" (Trace.n_contacts t) (Trace.n_contacts t')
      | Error msg -> Alcotest.failf "load: %s" msg)

let test_io_whitespace_format () =
  let text = "# crawdad-ish\n1 2 10.0 20.0\n2 3 30 45\n\n1 3 50.5 60.25\n" in
  match Trace_io.of_whitespace text with
  | Error msg -> Alcotest.failf "parse: %s" msg
  | Ok t ->
    (* 1-based ids shift down; times re-based to the earliest start *)
    Alcotest.(check int) "nodes" 3 (Trace.n_nodes t);
    Alcotest.(check int) "contacts" 3 (Trace.n_contacts t);
    Alcotest.check feps "horizon" 50.25 (Trace.horizon t);
    let c = (Trace.contacts t).(0) in
    Alcotest.(check int) "first a" 0 c.Contact.a;
    Alcotest.check feps "re-based start" 0. c.Contact.t_start;
    (match Trace.validate t with Ok () -> () | Error m -> Alcotest.failf "invalid: %s" m)

let test_io_whitespace_errors () =
  (match Trace_io.of_whitespace "1 2 nonsense 20\n" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error msg -> Alcotest.(check bool) "line number" true (String.length msg > 0));
  match Trace_io.of_whitespace "# only comments\n" with
  | Ok _ -> Alcotest.fail "accepted empty"
  | Error _ -> ()

let check_rejects name parse ~contains text =
  match parse text with
  | Ok _ -> Alcotest.failf "%s: accepted %S" name text
  | Error msg ->
    let present =
      let n = String.length contains in
      let rec scan i =
        i + n <= String.length msg && (String.sub msg i n = contains || scan (i + 1))
      in
      scan 0
    in
    if not present then Alcotest.failf "%s: error %S does not mention %S" name msg contains

let test_io_hardening () =
  let header = "# psn-trace v1\n# nodes 3\n# horizon 100\n" in
  let reject = check_rejects "of_string" Trace_io.of_string in
  reject ~contains:"bad horizon" "# psn-trace v1\n# nodes 3\n# horizon inf\n0,1,1,2\n";
  reject ~contains:"bad horizon" "# psn-trace v1\n# nodes 3\n# horizon nan\n0,1,1,2\n";
  reject ~contains:"line 4" (header ^ "0,1,nan,2\n");
  reject ~contains:"non-finite" (header ^ "0,1,1,inf\n");
  reject ~contains:"inverted" (header ^ "0,1,5,2\n");
  reject ~contains:"line 5" (header ^ "0,1,1,2\n0,1,1,2\n");
  reject ~contains:"first seen at line 4" (header ^ "0,1,1,2\n1,0,1,2\n");
  reject ~contains:"line 4: node id 7" (header ^ "0,7,1,2\n");
  reject ~contains:"stationary node 9" (header ^ "# kind 9 stationary\n0,1,1,2\n");
  (* distinct intervals of the same pair are not duplicates *)
  match Trace_io.of_string (header ^ "0,1,1,2\n0,1,3,4\n") with
  | Ok t -> Alcotest.(check int) "same-pair reuse ok" 2 (Trace.n_contacts t)
  | Error msg -> Alcotest.failf "rejected legitimate reuse: %s" msg

let test_io_whitespace_hardening () =
  let reject = check_rejects "of_whitespace" (Trace_io.of_whitespace ?n_nodes:None) in
  reject ~contains:"negative node id" "-1 2 10 20\n";
  reject ~contains:"self-contact" "2 2 10 20\n";
  reject ~contains:"non-finite" "1 2 nan 20\n";
  reject ~contains:"line 2" "1 2 10 20\n1 2 30 inf\n";
  reject ~contains:"inverted" "1 2 20 10\n";
  reject ~contains:"first seen at line 1" "1 2 10 20\n2 1 10 20\n";
  (match Trace_io.of_whitespace ~n_nodes:2 "1 2 10 20\n1 3 30 40\n" with
  | Ok _ -> Alcotest.fail "accepted id beyond requested population"
  | Error msg ->
    Alcotest.(check bool) (Printf.sprintf "names the line: %s" msg) true
      (String.length msg >= 6 && String.sub msg 0 6 = "line 2"));
  match Trace_io.of_whitespace "1 2 10 20\n2 3 15 25\n" with
  | Ok t -> Alcotest.(check int) "clean input still parses" 2 (Trace.n_contacts t)
  | Error msg -> Alcotest.failf "rejected clean input: %s" msg

(* --- Generator --- *)

let quick_config =
  {
    Generator.default with
    Generator.n_mobile = 30;
    n_stationary = 6;
    horizon = 3600.;
    mean_contacts = 50.;
  }

let test_generator_deterministic () =
  let t1 = Generator.generate ~rng:(Rng.create ~seed:42L ()) quick_config in
  let t2 = Generator.generate ~rng:(Rng.create ~seed:42L ()) quick_config in
  Alcotest.(check string) "identical serialisation" (Trace_io.to_string t1) (Trace_io.to_string t2)

let test_generator_seed_changes_trace () =
  let t1 = Generator.generate ~rng:(Rng.create ~seed:42L ()) quick_config in
  let t2 = Generator.generate ~rng:(Rng.create ~seed:43L ()) quick_config in
  Alcotest.(check bool) "different traces" false
    (String.equal (Trace_io.to_string t1) (Trace_io.to_string t2))

let test_generator_valid () =
  let t = Generator.generate ~rng:(Rng.create ~seed:1L ()) quick_config in
  match Trace.validate t with Ok () -> () | Error msg -> Alcotest.failf "invalid: %s" msg

let test_generator_calibration () =
  (* Mean per-node contact count should land near the target. *)
  let sum = ref 0. and runs = 3 in
  for seed = 1 to runs do
    let t = Generator.generate ~rng:(Rng.create ~seed:(Int64.of_int seed) ()) quick_config in
    let counts = Trace.contact_counts t in
    sum := !sum +. (float_of_int (Array.fold_left ( + ) 0 counts) /. float_of_int (Array.length counts))
  done;
  let mean = !sum /. float_of_int runs in
  Alcotest.(check bool)
    (Printf.sprintf "mean contacts %.1f within 20%% of target 50" mean)
    true
    (Float.abs (mean -. 50.) < 10.)

let test_generator_kinds () =
  let t = Generator.generate ~rng:(Rng.create ~seed:1L ()) quick_config in
  let kinds = Trace.kinds t in
  let stationary = Array.to_list kinds |> List.filter (Node.equal_kind Node.Stationary) in
  Alcotest.(check int) "20%% stationary" 6 (List.length stationary)

let test_generator_dropoff () =
  let cfg =
    { quick_config with Generator.profile = Generator.Dropoff { from_frac = 0.5; factor = 0.1 } }
  in
  let t = Generator.generate ~rng:(Rng.create ~seed:5L ()) quick_config in
  let td = Generator.generate ~rng:(Rng.create ~seed:5L ()) cfg in
  let late trace =
    Trace.n_contacts
      (Trace.restrict trace ~t0:(Trace.horizon trace /. 2.) ~t1:(Trace.horizon trace))
  in
  (* Calibration rebalances totals, so compare the late-window share. *)
  let share trace = float_of_int (late trace) /. float_of_int (Trace.n_contacts trace) in
  Alcotest.(check bool)
    (Printf.sprintf "dropoff share %.2f < flat share %.2f" (share td) (share t))
    true
    (share td < share t)

let test_generator_scan_quantisation () =
  let cfg = { quick_config with Generator.scan_interval = Some 120. } in
  let t = Generator.generate ~rng:(Rng.create ~seed:2L ()) cfg in
  Trace.iter_contacts t (fun c ->
      let q = Float.rem c.Contact.t_start 120. in
      if Float.abs q > 1e-6 then Alcotest.failf "start %f not on scan grid" c.Contact.t_start)

let test_generator_validate_config () =
  let bad = { quick_config with Generator.mean_contacts = -1. } in
  (match Generator.validate_config bad with
  | Ok () -> Alcotest.fail "accepted negative mean_contacts"
  | Error _ -> ());
  match Generator.validate_config quick_config with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "rejected good config: %s" msg

let test_sociabilities_range () =
  let rng = Rng.create ~seed:9L () in
  let ws = Generator.sociabilities quick_config rng in
  Alcotest.(check int) "length" 36 (Array.length ws);
  Array.iteri
    (fun i w ->
      if w < 0. || w > 1. then Alcotest.failf "weight %d out of range: %f" i w;
      if i >= 30 && w < 0.6 then Alcotest.failf "stationary node %d below 0.6: %f" i w)
    ws

let test_generate_full_consistency () =
  (* Every generated contact must happen while both endpoints share a
     venue location — the generator's core physical invariant. *)
  let g = Generator.generate_full ~rng:(Rng.create ~seed:3L ()) quick_config in
  let located_at timeline time =
    let rec find = function
      | { Generator.loc; s; e } :: rest ->
        if time >= s && time < e then Some loc else find rest
      | [] -> None
    in
    find timeline
  in
  Trace.iter_contacts g.Generator.trace (fun (c : Contact.t) ->
      let check_instant time =
        match
          ( located_at g.Generator.timelines.(c.Contact.a) time,
            located_at g.Generator.timelines.(c.Contact.b) time )
        with
        | Some la, Some lb when la = lb && la >= 0 -> ()
        | _, _ ->
          Alcotest.failf "contact %a active at %.1f without co-location" Contact.pp c time
      in
      (* contact start always lies in the co-location interval; probe the
         start and just before the end *)
      check_instant c.Contact.t_start;
      check_instant (Float.max c.Contact.t_start (c.Contact.t_end -. 0.01)));
  Alcotest.(check int) "weights per node" 36 (Array.length g.Generator.weights);
  Alcotest.(check bool) "generate matches generate_full" true
    (String.equal
       (Trace_io.to_string g.Generator.trace)
       (Trace_io.to_string (Generator.generate ~rng:(Rng.create ~seed:3L ()) quick_config)))

(* --- Intercontact --- *)

let gap_trace () =
  Trace.create ~n_nodes:3 ~horizon:200.
    [
      Contact.make ~a:0 ~b:1 ~t_start:10. ~t_end:20.;
      Contact.make ~a:0 ~b:1 ~t_start:50. ~t_end:60.;
      Contact.make ~a:0 ~b:1 ~t_start:100. ~t_end:110.;
      Contact.make ~a:0 ~b:2 ~t_start:30. ~t_end:40.;
    ]

let test_intercontact_pair_gaps () =
  let t = gap_trace () in
  Alcotest.(check (list (float 1e-9))) "gaps" [ 30.; 40. ] (Core.Intercontact.pair_gaps t 0 1);
  Alcotest.(check (list (float 1e-9))) "single meeting" [] (Core.Intercontact.pair_gaps t 0 2);
  Alcotest.check feps "mean" 35. (Core.Intercontact.mean_intercontact t 0 1);
  Alcotest.(check bool) "never-met mean infinite" true
    (Core.Intercontact.mean_intercontact t 1 2 = Float.infinity)

let test_intercontact_node_gaps () =
  let t = gap_trace () in
  (* node 0's contacts end at 20, 40, 60, 110 and start at 10, 30, 50, 100 *)
  Alcotest.(check (list (float 1e-9))) "node gaps" [ 10.; 10.; 40. ]
    (Core.Intercontact.node_gaps t 0)

let test_intercontact_aggregate_and_ccdf () =
  let t = gap_trace () in
  let gaps = Core.Intercontact.aggregate_gaps t in
  Alcotest.(check int) "two aggregate gaps" 2 (Array.length gaps);
  let ccdf = Core.Intercontact.ccdf gaps in
  (* values 30 and 40: P[X>30] = 0.5, P[X>40] = 0 *)
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9)))) "ccdf" [ (30., 0.5); (40., 0.) ] ccdf

let test_intercontact_tail_exponent () =
  (* Pareto(alpha = 2) samples: the Hill estimator should land near 2. *)
  let rng = Rng.create ~seed:44L () in
  let samples = Array.init 20_000 (fun _ -> Rng.pareto rng ~alpha:2. ~x_min:1.) in
  match Core.Intercontact.tail_exponent ~x_min:1. samples with
  | None -> Alcotest.fail "no estimate"
  | Some alpha -> Alcotest.(check (float 0.1)) "hill estimate" 2. alpha

let test_intercontact_tail_too_small () =
  Alcotest.(check (option (float 1.))) "tiny sample" None
    (Core.Intercontact.tail_exponent ~x_min:1. [| 2.; 3. |])

(* --- Dataset --- *)

let test_dataset_find () =
  (match Dataset.find "infocom06-9-12" with
  | Ok d -> Alcotest.(check string) "label" "Infocom 06 9AM-12PM" d.Dataset.label
  | Error msg -> Alcotest.failf "find: %s" msg);
  match Dataset.find "nope" with
  | Ok _ -> Alcotest.fail "found nonexistent dataset"
  | Error msg -> Alcotest.(check bool) "error lists names" true (String.length msg > 20)

let test_dataset_all_generate () =
  List.iter
    (fun d ->
      let t = Dataset.generate d in
      Alcotest.(check int) (d.Dataset.name ^ " population") 98 (Trace.n_nodes t);
      Alcotest.check feps (d.Dataset.name ^ " horizon") 10800. (Trace.horizon t);
      match Trace.validate t with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s invalid: %s" d.Dataset.name msg)
    Dataset.all

let test_dataset_contact_rate_ranges () =
  (* Infocom should be denser than CoNExT, as in the paper's Fig. 7. *)
  let mean_count d =
    let t = Dataset.generate d in
    let counts = Trace.contact_counts t in
    float_of_int (Array.fold_left ( + ) 0 counts) /. float_of_int (Array.length counts)
  in
  Alcotest.(check bool) "infocom denser than conext" true
    (mean_count Dataset.infocom06_am > 1.5 *. mean_count Dataset.conext06_am)

(* --- qcheck properties --- *)

let qcheck_intercontact =
  let open QCheck2 in
  let gen_intervals =
    Gen.(
      list_size (int_range 2 30)
        (pair (float_range 0. 400.) (float_range 0.5 10.)))
  in
  [
    Test.make ~name:"pair gaps are positive and one fewer than meetings (disjoint case)" ~count:200
      gen_intervals
      (fun raw ->
        (* build strictly disjoint intervals by accumulating *)
        let _, intervals =
          List.fold_left
            (fun (cursor, acc) (gap, dur) ->
              let s = cursor +. 1. +. Float.abs gap in
              let e = s +. dur in
              (e, (s, e) :: acc))
            (0., []) raw
        in
        let intervals = List.rev intervals in
        let horizon = (match intervals with [] -> 10. | _ -> snd (List.hd (List.rev intervals)) +. 1.) in
        let contacts = List.map (fun (s, e) -> Contact.make ~a:0 ~b:1 ~t_start:s ~t_end:e) intervals in
        let t = Trace.create ~n_nodes:2 ~horizon contacts in
        let gaps = Core.Intercontact.pair_gaps t 0 1 in
        List.length gaps = List.length intervals - 1 && List.for_all (fun g -> g > 0.) gaps);
    Test.make ~name:"ccdf is non-increasing in x" ~count:200
      Gen.(list_size (int_range 1 100) (float_range 0.1 1e4))
      (fun xs ->
        let points = Core.Intercontact.ccdf (Array.of_list xs) in
        let rec dec = function
          | (x1, p1) :: ((x2, p2) :: _ as rest) -> x1 < x2 && p1 >= p2 && dec rest
          | _ -> true
        in
        dec points);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let qcheck_tests =
  let open QCheck2 in
  let gen_trace =
    Gen.(
      let* n_nodes = int_range 2 12 in
      let* n_contacts = int_range 0 40 in
      let* raw =
        list_repeat n_contacts
          (triple (int_range 0 (n_nodes - 1)) (int_range 0 (n_nodes - 1))
             (pair (float_range 0. 90.) (float_range 0.5 20.)))
      in
      let contacts =
        List.filter_map
          (fun (a, b, (s, d)) ->
            if a = b then None else Some (Contact.make ~a ~b ~t_start:s ~t_end:(s +. d)))
          raw
      in
      (* Contacts whose serialised forms collide would (correctly) trip
         the parser's duplicate-line rejection; drop them here so the
         round-trip properties quantify over serialisable traces. *)
      let seen = Hashtbl.create 64 in
      let contacts =
        List.filter
          (fun (c : Contact.t) ->
            let key =
              Printf.sprintf "%d,%d,%.6g,%.6g" c.Contact.a c.Contact.b c.Contact.t_start
                c.Contact.t_end
            in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              true
            end)
          contacts
      in
      return (Trace.create ~n_nodes ~horizon:120. contacts))
  in
  let corrupt_contact_line mode text n_nodes =
    (* Locate the first contact line and damage it; returns None when
       the trace has no contacts. *)
    let lines = String.split_on_char '\n' text in
    let is_contact l =
      let l = String.trim l in
      l <> "" && l.[0] <> '#'
    in
    match List.find_index is_contact lines with
    | None -> None
    | Some i ->
      let line = List.nth lines i in
      let fields = String.split_on_char ',' line in
      let damaged =
        match (mode, fields) with
        | 0, [ a; b; s; e ] -> [ String.concat "," [ a; b; e; s ] ] (* inverted interval *)
        | 1, [ a; b; _; e ] -> [ String.concat "," [ a; b; "nan"; e ] ]
        | 2, _ -> [ line; line ] (* duplicate line *)
        | _, [ _; b; s; e ] ->
          [ String.concat "," [ string_of_int (n_nodes + 5); b; s; e ] ] (* id out of range *)
        | _ -> [ line ]
      in
      let lines =
        List.concat (List.mapi (fun j l -> if j = i then damaged else [ l ]) lines)
      in
      Some (String.concat "\n" lines)
  in
  [
    Test.make ~name:"trace io round-trips" ~count:100 gen_trace (fun t ->
        match Trace_io.of_string (Trace_io.to_string t) with
        | Error _ -> false
        | Ok t' ->
          Trace.n_nodes t = Trace.n_nodes t'
          && Trace.n_contacts t = Trace.n_contacts t'
          && Trace.horizon t = Trace.horizon t');
    Test.make ~name:"trace io serialise-parse fixed point" ~count:100 gen_trace (fun t ->
        match Trace_io.of_string (Trace_io.to_string t) with
        | Error _ -> false
        | Ok t' -> String.equal (Trace_io.to_string t') (Trace_io.to_string t));
    Test.make ~name:"corrupted contact lines rejected" ~count:100
      Gen.(pair gen_trace (int_range 0 3))
      (fun (t, mode) ->
        match corrupt_contact_line mode (Trace_io.to_string t) (Trace.n_nodes t) with
        | None -> true (* no contacts to corrupt *)
        | Some text -> (
          match Trace_io.of_string text with Error _ -> true | Ok _ -> false));
    Test.make ~name:"generated traces validate" ~count:100 gen_trace (fun t ->
        match Trace.validate t with Ok () -> true | Error _ -> false);
    Test.make ~name:"restrict preserves validity" ~count:100 gen_trace (fun t ->
        let sub = Trace.restrict t ~t0:20. ~t1:80. in
        (match Trace.validate sub with Ok () -> true | Error _ -> false)
        && Trace.horizon sub = 60.);
    Test.make ~name:"contact counts sum to twice n_contacts" ~count:100 gen_trace (fun t ->
        Array.fold_left ( + ) 0 (Trace.contact_counts t) = 2 * Trace.n_contacts t);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "psn_trace"
    [
      ( "contact",
        [
          Alcotest.test_case "normalises endpoints" `Quick test_contact_normalises;
          Alcotest.test_case "errors" `Quick test_contact_errors;
          Alcotest.test_case "queries" `Quick test_contact_queries;
        ] );
      ( "trace",
        [
          Alcotest.test_case "counts and rates" `Quick test_trace_counts_and_rates;
          Alcotest.test_case "sorted and valid" `Quick test_trace_sorted_and_valid;
          Alcotest.test_case "restrict" `Quick test_trace_restrict;
          Alcotest.test_case "clips to horizon" `Quick test_trace_clips_horizon;
          Alcotest.test_case "create errors" `Quick test_trace_create_errors;
          Alcotest.test_case "time series" `Quick test_trace_time_series;
          Alcotest.test_case "median rate" `Quick test_median_rate;
        ] );
      ( "io",
        [
          Alcotest.test_case "round-trip" `Quick test_io_roundtrip;
          Alcotest.test_case "missing header" `Quick test_io_missing_header;
          Alcotest.test_case "bad line" `Quick test_io_bad_line;
          Alcotest.test_case "file round-trip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "whitespace format" `Quick test_io_whitespace_format;
          Alcotest.test_case "whitespace errors" `Quick test_io_whitespace_errors;
          Alcotest.test_case "hardening" `Quick test_io_hardening;
          Alcotest.test_case "whitespace hardening" `Quick test_io_whitespace_hardening;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "seed changes trace" `Quick test_generator_seed_changes_trace;
          Alcotest.test_case "validates" `Quick test_generator_valid;
          Alcotest.test_case "calibration" `Slow test_generator_calibration;
          Alcotest.test_case "kinds" `Quick test_generator_kinds;
          Alcotest.test_case "dropoff thins late window" `Quick test_generator_dropoff;
          Alcotest.test_case "scan quantisation" `Quick test_generator_scan_quantisation;
          Alcotest.test_case "config validation" `Quick test_generator_validate_config;
          Alcotest.test_case "sociability ranges" `Quick test_sociabilities_range;
          Alcotest.test_case "contacts imply co-location" `Quick test_generate_full_consistency;
        ] );
      ( "intercontact",
        [
          Alcotest.test_case "pair gaps" `Quick test_intercontact_pair_gaps;
          Alcotest.test_case "node gaps" `Quick test_intercontact_node_gaps;
          Alcotest.test_case "aggregate and ccdf" `Quick test_intercontact_aggregate_and_ccdf;
          Alcotest.test_case "hill tail exponent" `Quick test_intercontact_tail_exponent;
          Alcotest.test_case "tail too small" `Quick test_intercontact_tail_too_small;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "find" `Quick test_dataset_find;
          Alcotest.test_case "all generate" `Slow test_dataset_all_generate;
          Alcotest.test_case "venue densities" `Slow test_dataset_contact_rate_ranges;
        ] );
      ("properties", qcheck_tests);
      ("intercontact-properties", qcheck_intercontact);
    ]
