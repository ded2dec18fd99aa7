(* Tests for the observability foundation: the deterministic
   log-bucketed histogram (merge algebra, quantile error bound, codec
   round-trip), the OpenMetrics registry/renderer/validator, and the
   flight-recorder ring + dump format. The jobs×chunk bit-identity of
   the serve metrics surface is pinned in test_serve.ml; here we pin
   the algebra that makes it possible. *)

module Hist = Core.Hist
module Openmetrics = Core.Openmetrics
module Flight = Core.Flight

let of_list xs =
  let h = Hist.create () in
  List.iter (Hist.add h) xs;
  h

(* The pure merge the algebra properties are stated over. *)
let merge a b =
  let h = Hist.copy a in
  Hist.merge_into ~into:h b;
  h

(* --- histogram: concrete semantics --- *)

let test_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "count" 0 (Hist.count h);
  Alcotest.(check (float 0.)) "quantile of empty" 0. (Hist.quantile h 0.5);
  Alcotest.(check (float 0.)) "sum of empty" 0. (Hist.sum h)

let test_special_values () =
  let h = of_list [ 0.; -3.; Float.nan; Float.infinity; Float.neg_infinity; 1.0 ] in
  (* zero and negative land in the zero bucket; non-finite are skipped *)
  Alcotest.(check int) "finite samples counted" 3 (Hist.count h);
  Alcotest.(check int) "non-finite skipped" 3 (Hist.skipped h);
  Alcotest.(check (float 0.)) "min is the negative sample" (-3.) (Hist.min_value h);
  Alcotest.(check (float 0.)) "max" 1. (Hist.max_value h)

let test_quantile_error_bound () =
  (* Every reported quantile sits within one bucket (~12.5% relative)
     of an exact sample, and never above the exact maximum. *)
  let xs = List.init 1000 (fun i -> 0.001 *. float_of_int (i + 1)) in
  let h = of_list xs in
  List.iter
    (fun q ->
      let exact = List.nth xs (Int.max 0 (int_of_float (Float.ceil (q *. 1000.)) - 1)) in
      let got = Hist.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%g within bucket (got %g, exact %g)" q got exact)
        true
        (got >= exact *. 0.999 && got <= exact *. 1.126))
    [ 0.5; 0.9; 0.99; 0.999 ];
  Alcotest.(check (float 0.)) "q=1 clamps to max" 1. (Hist.quantile h 1.)

let test_digest () =
  let h = of_list [ 1.; 2.; 3.; 4. ] in
  let d = Hist.digest h in
  Alcotest.(check int) "count" 4 d.Hist.d_count;
  Alcotest.(check (float 1e-9)) "sum" 10. d.Hist.d_sum;
  Alcotest.(check (float 0.)) "min" 1. d.Hist.d_min;
  Alcotest.(check (float 0.)) "max" 4. d.Hist.d_max;
  Alcotest.(check bool) "p50 <= p99" true (d.Hist.d_p50 <= d.Hist.d_p99)

let test_cumulative_shape () =
  let h = of_list [ 0.5; 0.5; 7. ] in
  match List.rev (Hist.cumulative h) with
  | (le, total) :: _ ->
    Alcotest.(check bool) "last le is +inf" true (Float.is_integer le = false || le > 1e300);
    Alcotest.(check bool) "+inf bound" true (not (Float.is_finite le));
    Alcotest.(check int) "last cumulative = count" (Hist.count h) total;
    let cums = List.map snd (Hist.cumulative h) in
    Alcotest.(check bool) "monotone" true
      (List.for_all2 ( <= ) cums (List.tl cums @ [ max_int ]))
  | [] -> Alcotest.fail "cumulative of non-empty hist is empty"

(* --- histogram: properties --- *)

let float_sample_gen =
  let open QCheck2 in
  Gen.oneof
    [
      Gen.float_range 1e-9 1e9;
      Gen.oneofl [ 0.; -1.; 1e-40; 1e40; 0.125; 3.; 1024. ];
    ]

let hist_props =
  let open QCheck2 in
  let lists3 = Gen.triple (Gen.list float_sample_gen) (Gen.list float_sample_gen) (Gen.list float_sample_gen) in
  [
    Test.make ~count:300 ~name:"merge is commutative" (Gen.pair (Gen.list float_sample_gen) (Gen.list float_sample_gen))
      (fun (xs, ys) ->
        Hist.equal
          (merge (of_list xs) (of_list ys))
          (merge (of_list ys) (of_list xs)));
    Test.make ~count:300 ~name:"merge is associative" lists3 (fun (xs, ys, zs) ->
        Hist.equal
          (merge (merge (of_list xs) (of_list ys)) (of_list zs))
          (merge (of_list xs) (merge (of_list ys) (of_list zs))));
    (* The schedule-independence property: however samples are
       partitioned across forked recorders, and in whatever order the
       parts are folded back, the merged state is bit-identical. *)
    Test.make ~count:300 ~name:"fork/join partition and order independent"
      (Gen.pair (Gen.list float_sample_gen) (Gen.int_range 1 5))
      (fun (xs, parts) ->
        let shards = Array.init parts (fun _ -> Hist.create ()) in
        List.iteri (fun i x -> Hist.add shards.(i mod parts) x) xs;
        let forward = Array.fold_left merge (Hist.create ()) shards in
        let backward =
          Array.fold_left merge (Hist.create ())
            (Array.of_list (List.rev (Array.to_list shards)))
        in
        Hist.equal forward (of_list xs) && Hist.equal forward backward);
    Test.make ~count:300 ~name:"encode/decode round-trips bit-exactly"
      (Gen.list float_sample_gen) (fun xs ->
        let h = of_list xs in
        match Hist.decode (Hist.encode h) with
        | Some h' -> Hist.equal h h'
        | None -> false);
    Test.make ~count:200 ~name:"quantiles are monotone in q" (Gen.list float_sample_gen)
      (fun xs ->
        let h = of_list xs in
        let qs = [ 0.1; 0.5; 0.9; 0.99; 1. ] in
        let vs = List.map (Hist.quantile h) qs in
        List.for_all2 ( <= ) vs (List.tl vs @ [ Float.max_float ]));
    Test.make ~count:200 ~name:"copy is independent" (Gen.list float_sample_gen) (fun xs ->
        let h = of_list xs in
        let g = Hist.copy h in
        Hist.add g 42.;
        Hist.equal h (of_list xs) && not (Hist.equal g h && Hist.count g <> Hist.count h));
  ]
  |> List.map QCheck_alcotest.to_alcotest

(* --- OpenMetrics --- *)

let sample_registry () =
  let m = Openmetrics.create () in
  Openmetrics.counter m ~help:"Contacts ingested" "psn_serve_ingested" 12;
  Openmetrics.gauge m "psn_serve.now_seconds" 99.5;
  Openmetrics.counter m ~labels:[ ("algo", "direct") ] "psn_router_observations" 3;
  Openmetrics.counter m ~labels:[ ("algo", "epidemic") ] "psn_router_observations" 4;
  Openmetrics.histogram m ~help:"Delay" "psn_delay_seconds" (of_list [ 0.5; 2.; 2.1 ]);
  Openmetrics.gauge m ~time_based:true "psn_elapsed_seconds" 1.25;
  m

let test_openmetrics_golden () =
  let got = Openmetrics.render (sample_registry ()) in
  let want =
    "# TYPE psn_delay_seconds histogram\n\
     # HELP psn_delay_seconds Delay\n\
     psn_delay_seconds_bucket{le=\"0.5625\"} 1\n\
     psn_delay_seconds_bucket{le=\"2.25\"} 3\n\
     psn_delay_seconds_bucket{le=\"+Inf\"} 3\n\
     psn_delay_seconds_sum 4.5999999999999996\n\
     psn_delay_seconds_count 3\n\
     # TYPE psn_elapsed_seconds gauge\n\
     psn_elapsed_seconds 1.25\n\
     # TYPE psn_router_observations counter\n\
     psn_router_observations_total{algo=\"direct\"} 3\n\
     psn_router_observations_total{algo=\"epidemic\"} 4\n\
     # TYPE psn_serve_ingested counter\n\
     # HELP psn_serve_ingested Contacts ingested\n\
     psn_serve_ingested_total 12\n\
     # TYPE psn_serve_now_seconds gauge\n\
     psn_serve_now_seconds 99.5\n\
     # EOF\n"
  in
  Alcotest.(check string) "exposition bytes" want got

let test_openmetrics_values_only () =
  let text = Openmetrics.render ~values_only:true (sample_registry ()) in
  Alcotest.(check bool) "time-based family omitted" false
    (List.exists
       (fun l -> String.length l >= 19 && String.equal (String.sub l 0 19) "psn_elapsed_seconds")
       (String.split_on_char '\n' text));
  Alcotest.(check bool) "value families kept" true
    (String.length text > 0
    && List.exists
         (fun l -> String.equal l "psn_serve_ingested_total 12")
         (String.split_on_char '\n' text))

let test_openmetrics_validate () =
  (match Openmetrics.validate (Openmetrics.render (sample_registry ())) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "render does not validate: %s" msg);
  (match Openmetrics.validate (Openmetrics.render ~values_only:true (sample_registry ())) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "values-only render does not validate: %s" msg);
  let invalid text = match Openmetrics.validate text with Error _ -> true | Ok () -> false in
  Alcotest.(check bool) "missing EOF" true (invalid "# TYPE a counter\na_total 1\n");
  Alcotest.(check bool) "content after EOF" true (invalid "# EOF\nx 1\n");
  Alcotest.(check bool) "sample without TYPE" true (invalid "orphan 1\n# EOF\n");
  Alcotest.(check bool) "bad value" true (invalid "# TYPE a gauge\na wat\n# EOF\n");
  Alcotest.(check bool) "bad counter suffix" true (invalid "# TYPE a counter\na 1\n# EOF\n");
  Alcotest.(check bool) "duplicate TYPE" true
    (invalid "# TYPE a gauge\n# TYPE a gauge\na 1\n# EOF\n")

let test_openmetrics_equal_values () =
  let equal_values a b =
    String.equal (Openmetrics.render ~values_only:true a) (Openmetrics.render ~values_only:true b)
  in
  let a = sample_registry () in
  let b = sample_registry () in
  Alcotest.(check bool) "identical registries equal" true (equal_values a b);
  Openmetrics.counter b "psn_extra" 1;
  Alcotest.(check bool) "diverged registries differ" false (equal_values a b);
  (* time-based families never participate in value equality *)
  let c = sample_registry () in
  let d = sample_registry () in
  Openmetrics.gauge d ~time_based:true "psn_wall_seconds" 123.456;
  Alcotest.(check bool) "time-based divergence invisible" true (equal_values c d)

(* --- flight recorder --- *)

let with_armed f =
  let path = Filename.temp_file "psn_flight" ".json" in
  Flight.arm ~cap:4 path;
  Fun.protect
    ~finally:(fun () ->
      Flight.disarm ();
      Sys.remove path)
    (fun () -> f path)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_flight_disarmed_noop () =
  Flight.disarm ();
  Flight.note "x" [ ("a", "b") ];
  Flight.dump ~reason:"nothing" ()

let test_flight_dump_and_validate () =
  with_armed (fun path ->
      Flight.note "serve.line" [ ("raw", "inject 0 3") ];
      Flight.note "serve.evict" [ ("count", "2") ];
      Flight.dump ~reason:"test crash" ();
      match Flight.validate (read_file path) with
      | Ok n -> Alcotest.(check int) "both events present" 2 n
      | Error msg -> Alcotest.failf "dump does not validate: %s" msg)

let test_flight_ring_drops_oldest () =
  with_armed (fun path ->
      for i = 1 to 10 do
        Flight.note "tick" [ ("i", string_of_int i) ]
      done;
      Flight.dump ~reason:"overflow" ();
      let text = read_file path in
      match Flight.validate text with
      | Error msg -> Alcotest.failf "dump does not validate: %s" msg
      | Ok n ->
        Alcotest.(check int) "ring capped at 4" 4 n;
        (* the survivors are the newest events, oldest dropped *)
        let has needle =
          let nl = String.length needle and tl = String.length text in
          let rec go i = i + nl <= tl && (String.equal (String.sub text i nl) needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "newest kept" true (has "\"i\":\"10\"");
        Alcotest.(check bool) "oldest dropped" false (has "\"i\":\"1\"\""))

let test_flight_escapes_json () =
  with_armed (fun path ->
      Flight.note "serve.line" [ ("raw", "quote \" backslash \\ newline \n end") ];
      Flight.dump ~reason:"escaping \"test\"" ();
      match Flight.validate (read_file path) with
      | Ok n -> Alcotest.(check int) "event survives escaping" 1 n
      | Error msg -> Alcotest.failf "escaped dump does not validate: %s" msg)

let test_flight_validate_rejects () =
  let invalid text = match Flight.validate text with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty" true (invalid "");
  Alcotest.(check bool) "not json" true (invalid "hello");
  Alcotest.(check bool) "truncated" true (invalid "{\"version\":1,\"reason\":\"x\",\"events\":[");
  Alcotest.(check bool) "missing keys" true (invalid "{\"a\":1}")

let () =
  Alcotest.run "hist"
    [
      ( "histogram",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "zero/negative/non-finite" `Quick test_special_values;
          Alcotest.test_case "quantile error bound" `Quick test_quantile_error_bound;
          Alcotest.test_case "digest" `Quick test_digest;
          Alcotest.test_case "cumulative shape" `Quick test_cumulative_shape;
        ] );
      ("properties", hist_props);
      ( "openmetrics",
        [
          Alcotest.test_case "golden exposition" `Quick test_openmetrics_golden;
          Alcotest.test_case "values-only rendering" `Quick test_openmetrics_values_only;
          Alcotest.test_case "validator" `Quick test_openmetrics_validate;
          Alcotest.test_case "value equality" `Quick test_openmetrics_equal_values;
        ] );
      ( "flight",
        [
          Alcotest.test_case "disarmed is a no-op" `Quick test_flight_disarmed_noop;
          Alcotest.test_case "dump validates" `Quick test_flight_dump_and_validate;
          Alcotest.test_case "ring drops oldest" `Quick test_flight_ring_drops_oldest;
          Alcotest.test_case "json escaping" `Quick test_flight_escapes_json;
          Alcotest.test_case "validator rejects garbage" `Quick test_flight_validate_rejects;
        ] );
    ]
