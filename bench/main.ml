(* Benchmark harness: regenerates every figure of the paper's
   evaluation as printed series/tables, then (unless --no-micro) runs
   Bechamel micro-benchmarks of the hot kernels.

   Usage: main.exe [--quick | --paper] [--only fig4,fig9,...]
                   [--no-micro] [--jobs N]

   The default scale preserves every figure's shape while finishing in
   minutes; --paper matches the paper's parameters (1800 messages,
   k = 2000, 10 seeds) and takes correspondingly longer. The `serve`
   section measures the online server (ingest throughput, query
   latency, memory cap, adaptive routing under faults) and records
   BENCH_serve.json. Runner speed across --jobs and store replay are
   measured, with repeats and bounds, by psnbench's sim-fig9 and
   store-replay workloads. *)

module E = Core.Experiments
module R = Core.Report
module Dataset = Core.Dataset

type options = {
  scale : E.scale;
  only : string list option;
  micro : bool;
  jobs : int;
  store_dir : string;
}

let quick_scale =
  { E.default_scale with E.n_messages = 30; seeds = 1; hop_paths_per_message = 100 }

let parse_args () =
  let scale = ref E.default_scale in
  let only = ref None in
  let micro = ref true in
  let jobs = ref (Core.Parallel.default_jobs ()) in
  let store_dir = ref "_psn_bench_store" in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      scale := quick_scale;
      go rest
    | "--paper" :: rest ->
      scale := E.paper_scale;
      go rest
    | "--no-micro" :: rest ->
      micro := false;
      go rest
    | "--only" :: spec :: rest ->
      only := Some (String.split_on_char ',' spec |> List.map String.trim);
      go rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 1 -> jobs := j
      | Some _ | None ->
        Printf.eprintf "--jobs expects a positive integer, got %s\n" n;
        exit 2);
      go rest
    | "--store" :: dir :: rest ->
      store_dir := dir;
      go rest
    | arg :: _ ->
      Printf.eprintf
        "unknown argument %s\n\
         usage: main.exe [--quick|--paper] [--only ids] [--no-micro] [--jobs N] [--store DIR]\n"
        arg;
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  { scale = !scale; only = !only; micro = !micro; jobs = !jobs; store_dir = !store_dir }

let wanted options id =
  match options.only with None -> true | Some ids -> List.mem id ids

let section options id render =
  if wanted options id then begin
    let t0 = Core.Clock.now_s () in
    let text = render () in
    Printf.printf "%s\n[%s took %.1fs]\n\n%!" text id (Core.Clock.now_s () -. t0)
  end

(* Studies are built lazily and cached so --only runs stay cheap. *)
let lazy_memo f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some v -> v
    | None ->
      let v = f () in
      cell := Some v;
      v

let micro_benchmarks () =
  Printf.printf "== Micro-benchmarks (Bechamel) ==\n%!";
  let open Bechamel in
  let trace =
    Core.Generator.generate
      ~rng:(Core.Rng.create ~seed:3L ())
      {
        Core.Generator.default with
        Core.Generator.n_mobile = 30;
        n_stationary = 8;
        horizon = 1800.;
        mean_contacts = 40.;
      }
  in
  let snap = Core.Snapshot.of_trace trace in
  let messages =
    Core.Workload.fixed_count
      ~rng:(Core.Rng.create ~seed:4L ())
      { Core.Workload.rate = 0.25; t_start = 0.; t_end = 1200.; n_nodes = 38 }
      ~count:50
  in
  let tests =
    [
      Test.make ~name:"snapshot.of_trace" (Staged.stage (fun () -> Core.Snapshot.of_trace trace));
      Test.make ~name:"enumerate.run(k=100)"
        (Staged.stage (fun () ->
             Core.Enumerate.run
               ~config:{ Core.Enumerate.k = 100; max_hops = None; stop_at_total = Some 500; exhaustive = false }
               snap ~src:0 ~dst:19 ~t_create:60.));
      Test.make ~name:"reachability.flood"
        (Staged.stage (fun () -> Core.Reachability.flood snap ~src:0 ~t_create:60.));
      Test.make ~name:"engine.run(epidemic,50msg)"
        (Staged.stage (fun () ->
             Core.Engine.run ~trace ~messages (Core.Epidemic.factory trace)));
      Test.make ~name:"meed.routing_costs"
        (Staged.stage (fun () -> Core.Meed.routing_costs trace));
    ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 1.) ~kde:None () in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let nanos = match Analyze.OLS.estimates est with Some [ v ] -> v | _ -> Float.nan in
          Printf.printf "  %-28s %12.0f ns/run\n%!" (Test.Elt.name elt) nanos)
        (Test.elements test))
    tests

let () =
  let options = parse_args () in
  let scale = options.scale in
  Printf.printf
    "PSN path-diversity reproduction bench\nscale: %d messages, k=%d, n*=%d, %d sim seeds\n\n%!"
    scale.E.n_messages scale.E.k scale.E.n_explosion scale.E.seeds;
  let jobs = options.jobs in
  let study_am = lazy_memo (fun () -> E.enumeration_study ~jobs ~scale Dataset.infocom06_am) in
  let study_pm = lazy_memo (fun () -> E.enumeration_study ~jobs ~scale Dataset.infocom06_pm) in
  let sim_am = lazy_memo (fun () -> E.sim_study ~jobs ~scale Dataset.infocom06_am) in
  let sim_pm = lazy_memo (fun () -> E.sim_study ~jobs ~scale Dataset.infocom06_pm) in
  let sim_cam = lazy_memo (fun () -> E.sim_study ~jobs ~scale Dataset.conext06_am) in
  let sim_cpm = lazy_memo (fun () -> E.sim_study ~jobs ~scale Dataset.conext06_pm) in

  section options "fig1" (fun () ->
      R.render_timeseries ~title:"Fig 1: total contacts over time (60 s bins)" (E.fig1 Dataset.all));
  section options "fig2" (fun () -> "== Fig 2: example space-time graph ==\n" ^ E.fig2 ());
  section options "fig4" (fun () ->
      let studies = [ study_am (); study_pm () ] in
      R.render_cdfs ~title:"Fig 4a: CDF of optimal path duration (s)" (E.fig4a studies)
      ^ "\n\n"
      ^ R.render_cdfs ~title:"Fig 4b: CDF of time to explosion (s)" (E.fig4b studies));
  section options "fig5" (fun () ->
      R.render_scatter ~title:"Fig 5: optimal path duration vs time to explosion (Infocom am)"
        (E.fig5 (study_am ())));
  section options "fig6" (fun () ->
      R.render_histogram ~title:"Fig 6: path arrivals after T1, messages with TE >= 150 s"
        (E.fig6 (study_am ())));
  section options "fig7" (fun () ->
      R.render_cdfs ~title:"Fig 7: CDF of per-node contact counts" (E.fig7 Dataset.all));
  section options "fig8" (fun () ->
      R.render_scatter_by_pair ~title:"Fig 8: T1 vs TE by source-destination pair type"
        (E.fig8 (study_am ())));
  section options "fig9" (fun () ->
      [
        ("Infocom 06 9-12", sim_am);
        ("Infocom 06 3-6", sim_pm);
        ("Conext 06 9-12", sim_cam);
        ("Conext 06 3-6", sim_cpm);
      ]
      |> List.map (fun (label, study) ->
             R.render_metrics ~title:(Printf.sprintf "Fig 9: delay vs success rate (%s)" label)
               (E.fig9 (study ())))
      |> String.concat "\n\n");
  section options "fig10" (fun () ->
      R.render_cdfs ~title:"Fig 10a: delay distributions (Infocom 06 9-12)" (E.fig10 (sim_am ()))
      ^ "\n\n"
      ^ R.render_cdfs ~title:"Fig 10b: delay distributions (Conext 06 9-12)" (E.fig10 (sim_cam ())));
  section options "fig11" (fun () ->
      R.render_cumulative ~title:"Fig 11: cumulative path deliveries over time (Infocom am)"
        (E.fig11 (study_am ())));
  section options "fig12" (fun () ->
      R.render_fig12 ~title:"Fig 12: paths taken by forwarding algorithms (example messages)"
        (E.fig12 (study_am ()) ~n_examples:2));
  section options "fig13" (fun () ->
      R.render_metrics_by_pair
        ~title:"Fig 13: algorithm performance by source-destination pair type (Infocom am)"
        (E.fig13 (sim_am ())));
  section options "fig14" (fun () ->
      R.render_hop_rates ~title:"Fig 14: mean contact rate of nodes at each hop (Infocom am)"
        (E.fig14 (study_am ())));
  section options "fig15" (fun () ->
      R.render_hop_ratios ~title:"Fig 15: consecutive-hop rate ratios (Infocom am)"
        (E.fig15 (study_am ())));
  section options "model-mean" (fun () ->
      R.render_model_rows
        ~title:"M01: homogeneous model, mean paths per node E[S(t)] (N=200, lambda=0.5)"
        (E.model_mean_table ~n:200 ~lambda:0.5 ~times:[ 0.; 2.; 4.; 6.; 8. ] ~runs:60 ()));
  section options "model-variance" (fun () ->
      R.render_model_rows
        ~title:"M02: homogeneous model, second moment E[S(t)^2] (N=200, lambda=0.5)"
        (E.model_second_moment_table ~n:200 ~lambda:0.5 ~times:[ 0.; 2.; 4.; 6.; 8. ] ~runs:60 ())
      ^ "\n\nM02b: generating-function blow-up times T_C(x)\n"
      ^ String.concat "\n"
          (List.map
             (fun (x, tc) ->
               match tc with
               | Some t -> Printf.sprintf "  x=%.2f  T_C=%.3f" x t
               | None -> Printf.sprintf "  x=%.2f  (no blow-up)" x)
             (E.model_blowup_table ~n:200 ~lambda:0.5 ~xs:[ 1.01; 1.1; 1.5; 2.0; 4.0 ])));
  section options "model-inhomog" (fun () ->
      R.render_quadrants
        ~title:"M03: two-class model quadrants (N=98, lambda_in=0.03/s, lambda_out=0.005/s, 3 h)"
        (E.model_quadrant_table ()));

  (* ---- Related-work check and design ablations ---- *)
  section options "r01-intercontact" (fun () ->
      (* Hui et al. / Chaintreau et al.: the aggregate inter-contact
         distribution has a heavy, approximately power-law body. *)
      let rows =
        List.map
          (fun d ->
            let trace = Core.Dataset.generate d in
            let gaps = Core.Intercontact.aggregate_gaps trace in
            let alpha =
              match Core.Intercontact.tail_exponent gaps with
              | Some a -> Printf.sprintf "%.2f" a
              | None -> "-"
            in
            let q p = Core.Quantile.quantile gaps p in
            [
              d.Core.Dataset.label;
              string_of_int (Array.length gaps);
              Printf.sprintf "%.0f" (q 0.5);
              Printf.sprintf "%.0f" (q 0.9);
              Printf.sprintf "%.0f" (q 0.99);
              alpha;
            ])
          Dataset.all
      in
      "== R01 (related work): aggregate inter-contact times ==\n"
      ^ Core.Table.render
          ~align:[ Core.Table.Left; Right; Right; Right; Right; Right ]
          ~header:[ "dataset"; "gaps"; "median (s)"; "p90"; "p99"; "Hill alpha" ]
          rows
      ^ "\n(heavy inter-contact tails, as in Hui et al. WDTN'05)");
  section options "r02-growth" (fun () ->
      (* §5.2's subset-explosion claim, measured: the arrival staircase
         at a high-rate destination grows faster than at a low-rate
         one. *)
      let study = study_am () in
      let fits =
        List.filter_map
          (fun (m : E.message_result) ->
            if Array.length m.E.arrival_times < 50 then None
            else begin
              let t1 = m.E.arrival_times.(0) in
              let points =
                Array.to_list m.E.arrival_times
                |> List.mapi (fun i t -> (t -. t1, float_of_int (i + 1)))
              in
              match Core.Regression.exponential_rate points with
              | fit when Float.is_finite fit.Core.Regression.slope && fit.Core.Regression.slope > 0.
                ->
                Some (m.E.pair, fit.Core.Regression.slope)
              | _ -> None
              | exception Invalid_argument _ -> None
            end)
          study.E.messages
      in
      let row label keep =
        let rates = List.filter_map (fun (p, r) -> if keep p then Some r else None) fits in
        match rates with
        | [] -> [ label; "0"; "-"; "-" ]
        | _ ->
          let arr = Array.of_list rates in
          [
            label;
            string_of_int (Array.length arr);
            Printf.sprintf "%.3f" (Core.Quantile.median arr);
            Printf.sprintf "%.3f" (Core.Quantile.quantile arr 0.75);
          ]
      in
      let is_in_dst = function Core.Classify.In_in | Core.Classify.Out_in -> true | _ -> false in
      "== R02 (section 5.2): explosion growth rate by destination class ==\n"
      ^ Core.Table.render
          ~align:[ Core.Table.Left; Right; Right; Right ]
          ~header:[ "destination"; "msgs"; "median rate (1/s)"; "q3" ]
          [ row "in (high-rate)" is_in_dst; row "out (low-rate)" (fun p -> not (is_in_dst p)) ]
      ^ Printf.sprintf
          "\n(population median contact rate: %.4f /s — subset explosion runs at\ncontact-rate speed, faster toward high-rate destinations)"
          (Core.Classify.median_rate study.E.classify));
  section options "abl-replication" (fun () ->
      (* The cost question the paper leaves open: the success/delay/copies
         frontier across replication budgets. *)
      let trace = Core.Dataset.(generate conext06_am) in
      let spec =
        {
          Core.Runner.workload = Core.Workload.paper_spec ~n_nodes:(Core.Trace.n_nodes trace);
          seeds = Core.Runner.default_seeds (Int.max 1 ((scale.E.seeds / 2) + 1));
        }
      in
      let contenders =
        [
          ("Epidemic", Core.Epidemic.factory);
          ("Random p=0.50", Core.Randomized.factory ~p:0.5 ());
          ("Random p=0.10", Core.Randomized.factory ~p:0.1 ());
          ("Spray&Wait L=32", Core.Spray_wait.factory ~l:32 ());
          ("Spray&Wait L=8", Core.Spray_wait.factory ~l:8 ());
          ("Spray&Wait L=2", Core.Spray_wait.factory ~l:2 ());
          ("Delegation(rate)", Core.Delegation.factory ());
          ( "Delegation(dest)",
            Core.Delegation.factory ~quality:Core.Delegation.Destination_frequency () );
          ("BubbleRap", Core.Bubble_rap.factory ());
          ("Two-Hop", Core.Two_hop.factory);
          ("Direct", Core.Direct.factory);
        ]
      in
      let rows =
        List.map2
          (fun (label, _) outcomes -> (label, Core.Metrics.pool outcomes))
          contenders
          (Core.Runner.outcomes_many ~jobs:options.jobs ~trace ~spec
             ~factories:(List.map snd contenders) ())
      in
      R.render_metrics ~title:"A01: replication budget vs delivery (Conext am)" rows);
  section options "abl-ttl" (fun () ->
      (* Sensitivity to message lifetime under epidemic forwarding. *)
      let trace = Core.Dataset.(generate infocom06_am) in
      let messages =
        Core.Workload.generate
          ~rng:(Core.Rng.create ~seed:1000L ())
          (Core.Workload.paper_spec ~n_nodes:(Core.Trace.n_nodes trace))
      in
      let row ttl =
        let outcome = Core.Engine.run ?ttl ~trace ~messages (Core.Epidemic.factory trace) in
        let m = Core.Metrics.of_outcome outcome in
        [
          (match ttl with None -> "unbounded" | Some t -> Printf.sprintf "%.0f s" t);
          Printf.sprintf "%.3f" m.Core.Metrics.success_rate;
          (if Float.is_nan m.Core.Metrics.mean_delay then "-"
           else Printf.sprintf "%.0f" m.Core.Metrics.mean_delay);
        ]
      in
      "== A02: epidemic success vs message lifetime (Infocom am) ==\n"
      ^ Core.Table.render
          ~align:[ Core.Table.Left; Right; Right ]
          ~header:[ "TTL"; "success"; "mean delay (s)" ]
          (List.map row [ Some 300.; Some 900.; Some 1800.; Some 3600.; None ])
      ^ "\n(the paper's infinite-buffer/unbounded-lifetime assumption is the last row)");
  section options "abl-mixing" (fun () ->
      (* Why the generator needs a location model: a uniformly mixing
         population destroys the long optimal durations of Fig. 4a. *)
      let stats n_locations =
        let cfg = { Core.Generator.default with Core.Generator.n_locations } in
        let trace = Core.Generator.generate ~rng:(Core.Rng.create ~seed:77L ()) cfg in
        let snap = Core.Snapshot.of_trace trace in
        let rng = Core.Rng.create ~seed:78L () in
        let n = Core.Trace.n_nodes trace in
        let durations = ref [] in
        for _ = 1 to 40 do
          let src = Core.Rng.int rng n in
          let dst = (src + 1 + Core.Rng.int rng (n - 1)) mod n in
          let t_create = Core.Rng.float rng 7200. in
          let flood = Core.Reachability.flood snap ~src ~t_create in
          match Core.Reachability.delivery_delay flood ~dst with
          | Some d -> durations := d :: !durations
          | None -> ()
        done;
        let arr = Array.of_list !durations in
        [
          string_of_int n_locations;
          string_of_int (Array.length arr);
          Printf.sprintf "%.0f" (Core.Quantile.median arr);
          Printf.sprintf "%.0f" (Core.Quantile.quantile arr 0.9);
        ]
      in
      "== A03: venue fragmentation vs optimal path duration ==\n"
      ^ Core.Table.render
          ~align:[ Core.Table.Right; Right; Right; Right ]
          ~header:[ "locations"; "delivered/40"; "median T1 (s)"; "p90 T1 (s)" ]
          (List.map stats [ 1; 4; 8; 16 ])
      ^ "\n\
         (one location = uniform mixing: deliveries complete within seconds,\n\
         nothing like the paper's Fig. 4a — fragmentation is essential)");
  section options "abl-k" (fun () ->
      (* Sensitivity of the explosion measurement to the truncation k. *)
      let trace = Core.Dataset.(generate infocom06_am) in
      let snap = Core.Snapshot.of_trace trace in
      let sample_messages =
        let rng = Core.Rng.create ~seed:79L () in
        let n = Core.Trace.n_nodes trace in
        List.init 25 (fun _ ->
            let src = Core.Rng.int rng n in
            let dst = (src + 1 + Core.Rng.int rng (n - 1)) mod n in
            (src, dst, Core.Rng.float rng 7200.))
      in
      let row k =
        let tes =
          List.filter_map
            (fun (src, dst, t_create) ->
              let result =
                Core.Enumerate.run
                  ~config:
                    { Core.Enumerate.k; max_hops = None; stop_at_total = Some k; exhaustive = false }
                  snap ~src ~dst ~t_create
              in
              (Core.Explosion.analyze ~n_explosion:k result).Core.Explosion.te)
            sample_messages
        in
        let arr = Array.of_list tes in
        [
          string_of_int k;
          string_of_int (Array.length arr);
          Printf.sprintf "%.0f" (Core.Quantile.median arr);
          Printf.sprintf "%.0f" (Core.Quantile.quantile arr 0.9);
        ]
      in
      "== A04: explosion threshold k vs measured TE (Infocom am, 25 msgs) ==\n"
      ^ Core.Table.render
          ~align:[ Core.Table.Right; Right; Right; Right ]
          ~header:[ "k"; "exploded"; "median TE (s)"; "p90 TE (s)" ]
          (List.map row [ 500; 1000; 2000 ])
      ^ "\n\
         (TE grows mildly with k: more paths must arrive; the paper's 2000 is\n\
         far past the knee, so the quadrant structure is insensitive to it)");
  section options "serve" (fun () ->
      (* Online serving: ingest throughput into the sliding window,
         per-query latency against the live window, the hard memory
         cap, and whether the adaptive router earns its keep under
         injected faults. Everything runs through Serve.handle — the
         same line protocol the CLI speaks — so the numbers include
         parsing and reply formatting. *)
      let trace = Core.Dataset.(generate infocom06_am) in
      let n_nodes = Core.Trace.n_nodes trace in
      let contacts = Array.to_list (Core.Trace.contacts trace) in
      let n_events = List.length contacts in
      (* Hex floats: parse back exactly, so the protocol round-trip
         cannot reorder or degenerate short contacts. *)
      let contact_line (c : Core.Contact.t) =
        Printf.sprintf "%d,%d,%h,%h" c.Core.Contact.a c.Core.Contact.b c.Core.Contact.t_start
          c.Core.Contact.t_end
      in
      let strategies = [ "epidemic"; "direct"; "two-hop" ] in
      let server ?faults ?(span = 1800.) ?(budget = 100_000)
          ?(policy = Core.Serve_window.Slide) ?(strategies = strategies) () =
        match
          Core.Serve.create
            {
              Core.Serve.default_config with
              Core.Serve.window = { Core.Serve_window.span; budget; policy; nodes = 0 };
              strategies;
              faults;
            }
        with
        | Ok s -> s
        | Error msg -> invalid_arg msg
      in
      let feed s line =
        match Core.Serve.handle s line with `Reply _ | `Stop _ -> ()
      in
      (* -- ingest throughput -- *)
      let ingest_server = server () in
      let lines = List.map contact_line contacts in
      let t0 = Core.Clock.now_s () in
      List.iter (feed ingest_server) lines;
      let wall_ingest = Core.Clock.now_s () -. t0 in
      let events_per_s = float_of_int n_events /. Float.max wall_ingest 1e-9 in
      (* -- query latency on the live window -- *)
      feed ingest_server (Printf.sprintf "advance %h" (Core.Trace.horizon trace));
      (* Latencies go through the telemetry histogram (log-bucketed,
         ~12.5% bucket width) instead of an exact sort: same digest the
         serve metrics endpoint reports, and the bucket counts land in
         the JSON so regressions show as shape changes, not just two
         moving percentiles. *)
      let time_queries mk =
        let h = Core.Hist.create () in
        for i = 0 to 29 do
          let src = i * 5 mod n_nodes in
          let dst = (src + 13) mod n_nodes in
          let line = mk src dst in
          let q0 = Core.Clock.now_s () in
          feed ingest_server line;
          Core.Hist.add h ((Core.Clock.now_s () -. q0) *. 1000.)
        done;
        h
      in
      let hist_json h =
        let d = Core.Hist.digest h in
        let buckets =
          Core.Hist.buckets h
          |> List.map (fun (le, c) ->
                 Printf.sprintf "{ \"le\": \"%s\", \"count\": %d }"
                   (if Float.is_finite le then Printf.sprintf "%g" le else "+Inf")
                   c)
          |> String.concat ", "
        in
        Printf.sprintf
          "{ \"p50\": %.3f, \"p99\": %.3f, \"p999\": %.3f, \"max\": %.3f, \"count\": %d, \
           \"buckets\": [ %s ] }"
          d.Core.Hist.d_p50 d.Core.Hist.d_p99 d.Core.Hist.d_p999 d.Core.Hist.d_max
          d.Core.Hist.d_count buckets
      in
      let delivery_h = time_queries (fun src dst -> Printf.sprintf "delivery %d %d" src dst) in
      let paths_h = time_queries (fun src dst -> Printf.sprintf "paths %d %d" src dst) in
      let delivery_p50, delivery_p99 =
        let d = Core.Hist.digest delivery_h in
        (d.Core.Hist.d_p50, d.Core.Hist.d_p99)
      in
      let paths_p50, paths_p99 =
        let d = Core.Hist.digest paths_h in
        (d.Core.Hist.d_p50, d.Core.Hist.d_p99)
      in
      (* -- memory cap under backpressure -- *)
      let cap_budget = 500 in
      let cap_check policy =
        let s = server ~budget:cap_budget ~policy () in
        List.iter (feed s) lines;
        let summary = Core.Serve.summary s in
        (summary.Core.Serve.s_peak, summary.Core.Serve.s_peak <= cap_budget)
      in
      let drop_peak, drop_ok = cap_check Core.Serve_window.Drop in
      let slide_peak, slide_ok = cap_check Core.Serve_window.Slide in
      (* -- adaptive vs static delivery under faults -- *)
      let faults =
        { Core.Faults.loss = 0.35; crash_rate = 0.; down_time = 300.; jitter = 0.2; seed = 7L }
      in
      let session_lines =
        let k = ref 0 in
        List.concat_map
          (fun (c : Core.Contact.t) ->
            incr k;
            let line = contact_line c in
            if !k mod 40 <> 0 then [ line ]
            else begin
              let src = !k * 3 mod n_nodes in
              let dst = (src + 11) mod n_nodes in
              if src = dst then [ line ]
              else
                [
                  line;
                  Printf.sprintf "inject %d %d" src dst;
                  Printf.sprintf "advance %h" c.Core.Contact.t_start;
                ]
            end)
          contacts
        @ [ Printf.sprintf "advance %h" (Core.Trace.horizon trace +. 3600.) ]
      in
      let delivery_ratio strategies =
        (* The shorter span bounds both the per-evaluation trace and
           how long an undeliverable message stays live — this is the
           expensive quarter of the section. *)
        let s = server ~faults ~span:900. ~strategies () in
        List.iter (feed s) session_lines;
        let summary = Core.Serve.summary s in
        let resolved = summary.Core.Serve.s_delivered + summary.Core.Serve.s_expired in
        if resolved = 0 then 0.
        else float_of_int summary.Core.Serve.s_delivered /. float_of_int resolved
      in
      let adaptive = delivery_ratio strategies in
      let static = List.map (fun name -> (name, delivery_ratio [ name ])) strategies in
      let best_static = List.fold_left (fun acc (_, r) -> Float.max acc r) 0. static in
      let json =
        Printf.sprintf
          "{\n\
          \  \"benchmark\": \"serve\",\n\
          \  \"dataset\": \"infocom06_am\",\n\
          \  \"events\": %d,\n\
          \  \"window_span_s\": 1800,\n\
          \  \"ingest_events_per_s\": %.0f,\n\
          \  \"delivery_query_ms\": %s,\n\
          \  \"paths_query_ms\": %s,\n\
          \  \"budget\": %d,\n\
          \  \"peak_drop\": %d,\n\
          \  \"peak_slide\": %d,\n\
          \  \"memory_cap_enforced\": %b,\n\
          \  \"faults\": { \"loss\": 0.35, \"jitter\": 0.2 },\n\
          \  \"delivery_ratio_adaptive\": %.3f,\n\
          \  \"delivery_ratio_static\": { %s },\n\
          \  \"adaptive_vs_best_static\": %.3f\n\
           }\n"
          n_events events_per_s (hist_json delivery_h) (hist_json paths_h) cap_budget
          drop_peak slide_peak (drop_ok && slide_ok) adaptive
          (String.concat ", "
             (List.map (fun (name, r) -> Printf.sprintf "%S: %.3f" name r) static))
          (adaptive -. best_static)
      in
      let oc = open_out "BENCH_serve.json" in
      output_string oc json;
      close_out oc;
      Printf.sprintf
        "== Serve: online window over Infocom am (%d events) ==\n\
         ingest:  %.0f events/s (window 1800 s, budget unconstrained)\n\
         queries: delivery p50 %.2f ms, p99 %.2f ms; paths p50 %.2f ms, p99 %.2f ms\n\
         memory:  budget %d -> peak %d (drop) / %d (slide); cap enforced: %b\n\
         faults (loss 0.35, jitter 0.2): adaptive %.3f vs static %s (best-static delta %+.3f)\n\
         (written to BENCH_serve.json)"
        n_events events_per_s delivery_p50 delivery_p99 paths_p50 paths_p99 cap_budget
        drop_peak slide_peak (drop_ok && slide_ok) adaptive
        (String.concat ", " (List.map (fun (name, r) -> Printf.sprintf "%s %.3f" name r) static))
        (adaptive -. best_static));
  section options "resilience" (fun () ->
      (* The robustness claim, quantified: sweep fault intensity over
         the six algorithms and record delivery, attempts-vs-copies
         overhead and surviving path counts to BENCH_resilience.json.
         Also asserts that a faulted fixed-seed run is bit-identical
         under sequential and parallel execution. *)
      let dataset = Dataset.infocom06_am in
      let res_scale = { scale with E.seeds = Int.max 2 (scale.E.seeds / 2 + 1) } in
      let intensities = [ 0.; 0.5; 1.; 2. ] in
      let study =
        E.resilience_study ~jobs:options.jobs ~scale:res_scale ~intensities ~path_messages:30
          dataset
      in
      let deterministic =
        (* Re-run one faulted level sequentially and fanned out: the
           plan keys every decision by entity, so metrics must match. *)
        let trace = study.E.res_trace in
        let plan =
          Core.Faults.compile ~n_nodes:(Core.Trace.n_nodes trace)
            ~horizon:(Core.Trace.horizon trace) E.default_fault_spec
        in
        let spec =
          {
            Core.Runner.workload = Core.Workload.paper_spec ~n_nodes:(Core.Trace.n_nodes trace);
            seeds = Core.Runner.default_seeds 2;
          }
        in
        let factories = List.map (fun e -> e.Core.Registry.factory) Core.Registry.paper_six in
        let pooled jobs =
          List.map Core.Metrics.pool
            (Core.Runner.outcomes_many ~jobs ~faults:plan ~trace ~spec ~factories ())
        in
        List.for_all2 Core.Metrics.equal (pooled 1) (pooled (Int.max 4 options.jobs))
      in
      let level_json (l : E.resilience_level) =
        let algo_json (entry, (m : Core.Metrics.t)) =
          let overhead = Core.Metrics.overhead m in
          Printf.sprintf
            "      { \"algorithm\": %S, \"delivery_ratio\": %.4f, \"mean_delay_s\": %s, \
             \"copies\": %d, \"attempts\": %d, \"overhead\": %s }"
            entry.Core.Registry.label m.Core.Metrics.success_rate
            (if Float.is_nan m.Core.Metrics.mean_delay then "null"
             else Printf.sprintf "%.1f" m.Core.Metrics.mean_delay)
            m.Core.Metrics.copies m.Core.Metrics.attempts
            (if Float.is_nan overhead then "null" else Printf.sprintf "%.3f" overhead)
        in
        let survival = l.E.res_survival in
        let median f =
          match survival with
          | [] -> Float.nan
          | _ -> Core.Quantile.median (Array.of_list (List.map f survival))
        in
        let delivered =
          List.length (List.filter (fun s -> s.Core.Explosion.still_delivered) survival)
        in
        Printf.sprintf
          "    {\n\
          \      \"intensity\": %.2f,\n\
          \      \"loss\": %.4f,\n\
          \      \"crashes_per_hour\": %.3f,\n\
          \      \"down_time_s\": %.0f,\n\
          \      \"jitter\": %.3f,\n\
          \      \"algorithms\": [\n\
           %s\n\
          \      ],\n\
          \      \"paths\": { \"probes\": %d, \"still_delivered\": %d, \
           \"median_baseline_paths\": %.0f, \"median_surviving_paths\": %.0f, \
           \"median_survival_ratio\": %.3f }\n\
          \    }"
          l.E.res_intensity l.E.res_spec.Core.Faults.loss
          (l.E.res_spec.Core.Faults.crash_rate *. 3600.)
          l.E.res_spec.Core.Faults.down_time l.E.res_spec.Core.Faults.jitter
          (String.concat ",\n" (List.map algo_json l.E.res_rows))
          (List.length survival) delivered
          (median (fun s -> float_of_int s.Core.Explosion.baseline_paths))
          (median (fun s -> float_of_int s.Core.Explosion.surviving_paths))
          (median (fun s -> s.Core.Explosion.survival_ratio))
      in
      let json =
        Printf.sprintf
          "{\n\
          \  \"benchmark\": \"resilience\",\n\
          \  \"dataset\": \"infocom06_am\",\n\
          \  \"seeds\": %d,\n\
          \  \"fault_seed\": %Ld,\n\
          \  \"deterministic_across_jobs\": %b,\n\
          \  \"levels\": [\n\
           %s\n\
          \  ]\n\
           }\n"
          res_scale.E.seeds study.E.res_base.Core.Faults.seed deterministic
          (String.concat ",\n" (List.map level_json study.E.res_levels))
      in
      let oc = open_out "BENCH_resilience.json" in
      output_string oc json;
      close_out oc;
      R.render_resilience
        ~title:"Resilience: the six algorithms under injected faults (Infocom am)" study
      ^ Printf.sprintf
          "\nfaulted run bit-identical across --jobs: %b\n(written to BENCH_resilience.json)"
          deterministic);
  section options "robust" (fun () ->
      (* Robustness must be free when off: price the disabled failpoint
         trigger (no plan installed), a sweep under a plan naming only
         an unrelated site (the trigger now scans the plan per hit),
         and checkpoint rounds vs one big batch (extra manifest writes
         per round). All variants must stay bit-identical. Results land
         in BENCH_robust.json. *)
      let trace = Core.Dataset.(generate infocom06_am) in
      let n_seeds = Int.max 4 scale.E.seeds in
      let workload = Core.Workload.paper_spec ~n_nodes:(Core.Trace.n_nodes trace) in
      let spec = { Core.Runner.workload; seeds = Core.Runner.default_seeds n_seeds } in
      let entries = Core.Registry.paper_six in
      let factories = List.map (fun e -> e.Core.Registry.factory) entries in
      Core.Failpoint.uninstall ();
      let reps = 10_000_000 in
      let t0 = Core.Clock.now_s () in
      for _ = 1 to reps do
        Core.Failpoint.trigger "bench.disabled"
      done;
      let disabled_ns = (Core.Clock.now_s () -. t0) /. float_of_int reps *. 1e9 in
      let time_sweep () =
        let t0 = Core.Clock.now_s () in
        let m =
          List.map Core.Metrics.pool
            (Core.Runner.outcomes_many ~jobs:options.jobs ~trace ~spec ~factories ())
        in
        (Core.Clock.now_s () -. t0, m)
      in
      let wall_off, m_off = time_sweep () in
      let wall_plan, m_plan =
        match Core.Failpoint.parse "bench.unrelated=error" with
        | Error e -> invalid_arg e
        | Ok plan ->
          Core.Failpoint.install plan;
          Fun.protect ~finally:Core.Failpoint.uninstall time_sweep
      in
      let st = Core.Store.open_ ~dir:options.store_dir () in
      let caches =
        let trace_hash = Core.Store_key.trace_hash trace in
        List.map
          (fun (e : Core.Registry.entry) ->
            Core.Store_memo.runner_cache ~store:st ~trace_hash ~workload
              ~algo:e.Core.Registry.name ())
          entries
      in
      let time_ckpt checkpoint =
        ignore (Core.Store.gc st ~max_bytes:0);
        let t0 = Core.Clock.now_s () in
        let m =
          List.map Core.Metrics.pool
            (Core.Runner.outcomes_many ~jobs:options.jobs ~stores:caches ~checkpoint ~trace
               ~spec ~factories ())
        in
        (Core.Clock.now_s () -. t0, m)
      in
      let wall_c0, m_c0 = time_ckpt 0 in
      let wall_c1, m_c1 = time_ckpt 1 in
      let wall_c8, m_c8 = time_ckpt 8 in
      let identical =
        List.for_all2 Core.Metrics.equal m_off m_plan
        && List.for_all2 Core.Metrics.equal m_off m_c0
        && List.for_all2 Core.Metrics.equal m_off m_c1
        && List.for_all2 Core.Metrics.equal m_off m_c8
      in
      let json =
        Printf.sprintf
          "{\n\
          \  \"benchmark\": \"robust\",\n\
          \  \"dataset\": \"infocom06_am\",\n\
          \  \"seeds\": %d,\n\
          \  \"jobs\": %d,\n\
          \  \"disabled_trigger_ns\": %.2f,\n\
          \  \"sweep_wall_s_no_plan\": %.3f,\n\
          \  \"sweep_wall_s_unrelated_plan\": %.3f,\n\
          \  \"checkpoint_wall_s\": { \"off\": %.3f, \"every_task\": %.3f, \"every_8\": %.3f },\n\
          \  \"metrics_identical\": %b\n\
           }\n"
          n_seeds options.jobs disabled_ns wall_off wall_plan wall_c0 wall_c1 wall_c8 identical
      in
      let oc = open_out "BENCH_robust.json" in
      output_string oc json;
      close_out oc;
      Printf.sprintf
        "== Robustness overhead: failpoints and checkpoint rounds (Infocom am) ==\n\
         disabled trigger (no plan installed): %.2f ns/site\n\
         sweep %d algorithms x %d seeds: no plan %.3f s, unrelated plan installed %.3f s\n\
         checkpointed sweep: off %.3f s, --checkpoint 1 %.3f s, --checkpoint 8 %.3f s\n\
         all variants bit-identical: %b\n\
         (written to BENCH_robust.json)"
        disabled_ns (List.length entries) n_seeds wall_off wall_plan wall_c0 wall_c1 wall_c8
        identical);
  if options.micro && wanted options "micro" then micro_benchmarks ()
