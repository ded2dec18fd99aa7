(* Figure bench: regenerates the paper's evaluation — Figs. 1-15,
   the section 5 path-growth models, related-work checks, design
   ablations and two fault studies — as printed series and tables.

   Usage: main.exe [--quick | --paper] [--only fig4,fig9,...] [--jobs N]

   The default scale preserves every figure's shape while finishing in
   minutes; --paper matches the paper's parameters (1800 messages,
   k = 2000, 10 seeds) and takes correspondingly longer. Timings of the
   hot kernels, the runner, the store and the online server are
   measured, with repeats and bounds, by the psnbench workloads. *)

module E = Core.Experiments
module R = Core.Report
module Dataset = Core.Dataset

type options = { scale : E.scale; only : string list option; jobs : int }

let quick_scale =
  { E.default_scale with E.n_messages = 30; seeds = 1; hop_paths_per_message = 100 }

let parse_args () =
  let scale = ref E.default_scale in
  let only = ref None in
  let jobs = ref (Core.Parallel.default_jobs ()) in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      scale := quick_scale;
      go rest
    | "--paper" :: rest ->
      scale := E.paper_scale;
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
    | arg :: _ ->
      Printf.eprintf
        "unknown argument %s\nusage: main.exe [--quick|--paper] [--only ids] [--jobs N]\n" arg;
      exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  { scale = !scale; only = !only; jobs = !jobs }

(* Every section as (id, render), in print order. Studies are built
   lazily and shared, so --only runs stay cheap. *)
let sections ~scale ~jobs =
  let study_am = lazy (E.enumeration_study ~jobs ~scale Dataset.infocom06_am) in
  let study_pm = lazy (E.enumeration_study ~jobs ~scale Dataset.infocom06_pm) in
  let sim_am = lazy (E.sim_study ~jobs ~scale Dataset.infocom06_am) in
  let sim_pm = lazy (E.sim_study ~jobs ~scale Dataset.infocom06_pm) in
  let sim_cam = lazy (E.sim_study ~jobs ~scale Dataset.conext06_am) in
  let sim_cpm = lazy (E.sim_study ~jobs ~scale Dataset.conext06_pm) in
  [
  ("fig1", fun () ->
      R.render_timeseries ~title:"Fig 1: total contacts over time (60 s bins)" (E.fig1 Dataset.all));
  ("fig2", fun () -> "== Fig 2: example space-time graph ==\n" ^ E.fig2 ());
  ("fig4", fun () ->
      let studies = [ Lazy.force study_am; Lazy.force study_pm ] in
      R.render_cdfs ~title:"Fig 4a: CDF of optimal path duration (s)" (E.fig4a studies)
      ^ "\n\n"
      ^ R.render_cdfs ~title:"Fig 4b: CDF of time to explosion (s)" (E.fig4b studies));
  ("fig5", fun () ->
      R.render_scatter ~title:"Fig 5: optimal path duration vs time to explosion (Infocom am)"
        (E.fig5 (Lazy.force study_am)));
  ("fig6", fun () ->
      R.render_histogram ~title:"Fig 6: path arrivals after T1, messages with TE >= 150 s"
        (E.fig6 (Lazy.force study_am)));
  ("fig7", fun () ->
      R.render_cdfs ~title:"Fig 7: CDF of per-node contact counts" (E.fig7 Dataset.all));
  ("fig8", fun () ->
      R.render_scatter_by_pair ~title:"Fig 8: T1 vs TE by source-destination pair type"
        (E.fig8 (Lazy.force study_am)));
  ("fig9", fun () ->
      [
        ("Infocom 06 9-12", sim_am);
        ("Infocom 06 3-6", sim_pm);
        ("Conext 06 9-12", sim_cam);
        ("Conext 06 3-6", sim_cpm);
      ]
      |> List.map (fun (label, study) ->
             R.render_metrics ~title:(Printf.sprintf "Fig 9: delay vs success rate (%s)" label)
               (E.fig9 (Lazy.force study)))
      |> String.concat "\n\n");
  ("fig10", fun () ->
      R.render_cdfs ~title:"Fig 10a: delay distributions (Infocom 06 9-12)" (E.fig10 (Lazy.force sim_am))
      ^ "\n\n"
      ^ R.render_cdfs ~title:"Fig 10b: delay distributions (Conext 06 9-12)" (E.fig10 (Lazy.force sim_cam)));
  ("fig11", fun () ->
      R.render_cumulative ~title:"Fig 11: cumulative path deliveries over time (Infocom am)"
        (E.fig11 (Lazy.force study_am)));
  ("fig12", fun () ->
      R.render_fig12 ~title:"Fig 12: paths taken by forwarding algorithms (example messages)"
        (E.fig12 (Lazy.force study_am) ~n_examples:2));
  ("fig13", fun () ->
      R.render_metrics_by_pair
        ~title:"Fig 13: algorithm performance by source-destination pair type (Infocom am)"
        (E.fig13 (Lazy.force sim_am)));
  ("fig14", fun () ->
      R.render_hop_rates ~title:"Fig 14: mean contact rate of nodes at each hop (Infocom am)"
        (E.fig14 (Lazy.force study_am)));
  ("fig15", fun () ->
      R.render_hop_ratios ~title:"Fig 15: consecutive-hop rate ratios (Infocom am)"
        (E.fig15 (Lazy.force study_am)));
  ("model-mean", fun () ->
      R.render_model_rows
        ~title:"M01: homogeneous model, mean paths per node E[S(t)] (N=200, lambda=0.5)"
        (E.model_mean_table ~n:200 ~lambda:0.5 ~times:[ 0.; 2.; 4.; 6.; 8. ] ~runs:60 ()));
  ("model-variance", fun () ->
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
  ("model-inhomog", fun () ->
      R.render_quadrants
        ~title:"M03: two-class model quadrants (N=98, lambda_in=0.03/s, lambda_out=0.005/s, 3 h)"
        (E.model_quadrant_table ()));

  (* ---- Related-work check and design ablations ---- *)
  ("r01-intercontact", fun () ->
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
  ("r02-growth", fun () ->
      (* §5.2's subset-explosion claim, measured: the arrival staircase
         at a high-rate destination grows faster than at a low-rate
         one. *)
      let study = Lazy.force study_am in
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
  ("abl-replication", fun () ->
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
          (Core.Runner.outcomes_many ~jobs ~trace ~spec
             ~factories:(List.map snd contenders) ())
      in
      R.render_metrics ~title:"A01: replication budget vs delivery (Conext am)" rows);
  ("abl-ttl", fun () ->
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
  ("abl-mixing", fun () ->
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
  ("abl-k", fun () ->
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
  ("serve", fun () ->
      (* Whether the adaptive router earns its keep under injected
         faults: the same session, through Serve.handle (the line
         protocol the CLI speaks), routed adaptively over three
         strategies and statically by each one. *)
      let trace = Core.Dataset.(generate infocom06_am) in
      let n_nodes = Core.Trace.n_nodes trace in
      let contacts = Array.to_list (Core.Trace.contacts trace) in
      (* Hex floats: parse back exactly, so the protocol round-trip
         cannot reorder or degenerate short contacts. *)
      let contact_line (c : Core.Contact.t) =
        Printf.sprintf "%d,%d,%h,%h" c.Core.Contact.a c.Core.Contact.b c.Core.Contact.t_start
          c.Core.Contact.t_end
      in
      let strategies = [ "epidemic"; "direct"; "two-hop" ] in
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
        (* The 900 s span bounds both the per-evaluation trace and how
           long an undeliverable message stays live. *)
        let s =
          match
            Core.Serve.create
              {
                Core.Serve.default_config with
                Core.Serve.window =
                  { Core.Serve_window.span = 900.; budget = 100_000; policy = Slide; nodes = 0 };
                strategies;
                faults = Some faults;
              }
          with
          | Ok s -> s
          | Error msg -> invalid_arg msg
        in
        List.iter
          (fun line -> match Core.Serve.handle s line with `Reply _ | `Stop _ -> ())
          session_lines;
        let summary = Core.Serve.summary s in
        let resolved = summary.Core.Serve.s_delivered + summary.Core.Serve.s_expired in
        if resolved = 0 then 0.
        else float_of_int summary.Core.Serve.s_delivered /. float_of_int resolved
      in
      let adaptive = delivery_ratio strategies in
      let static = List.map (fun name -> (name, delivery_ratio [ name ])) strategies in
      let best_static = List.fold_left (fun acc (_, r) -> Float.max acc r) 0. static in
      Printf.sprintf
        "== Serve: adaptive vs static routing over Infocom am (%d events) ==\n\
         faults (loss 0.35, jitter 0.2): adaptive %.3f vs static %s (best-static delta %+.3f)"
        (List.length contacts) adaptive
        (String.concat ", " (List.map (fun (name, r) -> Printf.sprintf "%s %.3f" name r) static))
        (adaptive -. best_static));
  ("resilience", fun () ->
      (* The robustness claim, quantified: fault intensity swept over
         the six algorithms — delivery, attempts-vs-copies overhead and
         surviving path counts per level. *)
      let res_scale = { scale with E.seeds = Int.max 2 (scale.E.seeds / 2 + 1) } in
      R.render_resilience
        ~title:"Resilience: the six algorithms under injected faults (Infocom am)"
        (E.resilience_study ~jobs ~scale:res_scale ~intensities:[ 0.; 0.5; 1.; 2. ]
           ~path_messages:30 Dataset.infocom06_am));
  ]

let () =
  let options = parse_args () in
  let scale = options.scale in
  let sections = sections ~scale ~jobs:options.jobs in
  let ids = List.map fst sections in
  let wanted id = match options.only with None -> true | Some only -> List.mem id only in
  (match List.filter (fun id -> not (List.mem id ids)) (Option.value options.only ~default:[]) with
  | [] -> ()
  | unknown ->
    Printf.eprintf "unknown section %s\nvalid ids: %s\n" (String.concat ", " unknown)
      (String.concat ", " ids);
    exit 2);
  Printf.printf
    "PSN path-diversity reproduction bench\nscale: %d messages, k=%d, n*=%d, %d sim seeds\n\n%!"
    scale.E.n_messages scale.E.k scale.E.n_explosion scale.E.seeds;
  List.iter
    (fun (id, render) ->
      if wanted id then begin
        let t0 = Core.Clock.now_s () in
        let text = render () in
        Printf.printf "%s\n[%s took %.1fs]\n\n%!" text id (Core.Clock.now_s () -. t0)
      end)
    sections
