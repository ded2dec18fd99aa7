open Psn_prng
open Psn_stats
open Psn_trace
open Psn_spacetime
open Psn_paths
open Psn_sim
open Psn_forwarding
module E = Experiments
module R = Report
module T = Psn_telemetry.Telemetry
module Serve = Psn_serve.Server

type context = {
  dataset : Dataset.t;
  scale : E.scale;
  jobs : int option;
  telemetry : T.sink;
  studies : (string * E.study Lazy.t) list;
  sims : (string * E.sim_study Lazy.t) list;
  resilience : E.scale -> E.resilience_study;
  dump : string option;
  mutable plots : (string * [ `Lines | `Points | `Boxes ] * string list) list;
}

let context ?jobs ?chunk ?store ?retries ?checkpoint ?(telemetry = T.Sink.null) ?dump ~scale
    dataset =
  let per_dataset f = List.map (fun (d : Dataset.t) -> (d.name, lazy (f d))) Dataset.all in
  {
    dataset;
    scale;
    jobs;
    telemetry;
    studies =
      per_dataset (fun d ->
          E.enumeration_study ?jobs ?chunk ?store ?retries ?checkpoint ~scale ~telemetry d);
    sims =
      per_dataset (fun d -> E.sim_study ?jobs ?chunk ?store ?retries ?checkpoint ~scale ~telemetry d);
    resilience =
      (fun scale ->
        E.resilience_study ?jobs ?chunk ?store ?retries ?checkpoint ~scale
          ~intensities:[ 0.; 0.5; 1.; 2. ] ~path_messages:30 ~telemetry dataset);
    dump;
    plots = [];
  }

let scale_line { scale = s; _ } =
  Printf.sprintf "scale: %d messages, k=%d, n*=%d, %d sim seeds" s.E.n_messages s.E.k
    s.E.n_explosion s.E.seeds

(* Studies are built on first use and shared by every section that
   reads the same dataset. *)
let study ctx (d : Dataset.t) = Lazy.force (List.assoc d.name ctx.studies)
let sim ctx (d : Dataset.t) = Lazy.force (List.assoc d.name ctx.sims)

(* A single-dataset section's title names the chosen dataset. *)
let on ctx title = Printf.sprintf "%s (%s)" title ctx.dataset.label

(* A panel over fixed datasets also shows the chosen one, so every
   dataset can be drawn in every figure. *)
let with_chosen ctx datasets =
  if List.exists (fun (d : Dataset.t) -> String.equal d.name ctx.dataset.name) datasets then
    datasets
  else datasets @ [ ctx.dataset ]

(* --dump: write one panel's series and rewrite plot_all.gp over every
   series written so far. Returns the note appended to the section. *)
let dump ctx name style write =
  match ctx.dump with
  | None -> ""
  | Some dir ->
    let files = write dir in
    ctx.plots <- ctx.plots @ [ (name, style, files) ];
    ignore (Export.write_gnuplot_script ~dir ctx.plots);
    Printf.sprintf "\n(wrote %d data file(s) under %s)" (List.length files) dir

let dump_cdfs ctx name cdfs = dump ctx name `Lines (fun dir -> Export.write_cdfs ~dir ~name cdfs)
let model_times = [ 0.; 2.; 4.; 6.; 8. ]

(* A table row: [label], the sample size, its median and its [q]-quantile. *)
let count_row label fmt q arr =
  [
    label;
    string_of_int (Array.length arr);
    Printf.sprintf fmt (Quantile.median arr);
    Printf.sprintf fmt (Quantile.quantile arr q);
  ]

(* Every section as (id, render), in print order. *)
let sections =
  [
  ("fig1", fun _ ->
      R.render_timeseries ~title:"Fig 1: total contacts over time (60 s bins)" (E.fig1 Dataset.all));
  ("fig2", fun _ -> "== Fig 2: example space-time graph ==\n" ^ E.fig2 ());
  ("fig4", fun ctx ->
      let studies = List.map (study ctx) (with_chosen ctx Dataset.[ infocom06_am; infocom06_pm ]) in
      let a = E.fig4a studies and b = E.fig4b studies in
      let dumped_a = dump_cdfs ctx "fig4a" a in
      let dumped_b = dump_cdfs ctx "fig4b" b in
      R.render_cdfs ~title:"Fig 4a: CDF of optimal path duration (s)" a
      ^ "\n\n"
      ^ R.render_cdfs ~title:"Fig 4b: CDF of time to explosion (s)" b
      ^ dumped_a ^ dumped_b);
  ("fig5", fun ctx ->
      let points = E.fig5 (study ctx ctx.dataset) in
      R.render_scatter ~title:(on ctx "Fig 5: optimal path duration vs time to explosion") points
      ^ dump ctx "fig5" `Points (fun dir -> [ Export.write_scatter ~dir ~name:"fig5" points ]));
  ("fig6", fun ctx ->
      R.render_histogram ~title:(on ctx "Fig 6: path arrivals after T1, messages with TE >= 150 s")
        (E.fig6 (study ctx ctx.dataset)));
  ("fig7", fun ctx ->
      let cdfs = E.fig7 Dataset.all in
      R.render_cdfs ~title:"Fig 7: CDF of per-node contact counts" cdfs ^ dump_cdfs ctx "fig7" cdfs);
  ("fig8", fun ctx ->
      R.render_scatter_by_pair ~title:(on ctx "Fig 8: T1 vs TE by source-destination pair type")
        (E.fig8 (study ctx ctx.dataset)));
  ("fig9", fun ctx ->
      Dataset.all
      |> List.map (fun (d : Dataset.t) ->
             let sim = sim ctx d in
             R.render_metrics ~title:(Printf.sprintf "Fig 9: delay vs success rate (%s)" d.label)
               (E.fig9 sim)
             ^ R.render_failed_cells ~title:"Failed simulation cells" sim.E.sim_failed)
      |> String.concat "\n\n");
  ("fig10", fun ctx ->
      with_chosen ctx Dataset.[ infocom06_am; conext06_am ]
      |> List.mapi (fun i (d : Dataset.t) ->
             let panel = Printf.sprintf "10%c" (Char.chr (Char.code 'a' + i)) in
             let cdfs = E.fig10 (sim ctx d) in
             R.render_cdfs ~title:(Printf.sprintf "Fig %s: delay distributions (%s)" panel d.label)
               cdfs
             ^ dump_cdfs ctx ("fig" ^ panel) cdfs)
      |> String.concat "\n\n");
  ("fig11", fun ctx ->
      R.render_cumulative ~title:(on ctx "Fig 11: cumulative path deliveries over time")
        (E.fig11 (study ctx ctx.dataset)));
  ("fig12", fun ctx ->
      R.render_fig12 ~title:(on ctx "Fig 12: paths taken by forwarding algorithms (example messages)")
        (E.fig12 (study ctx ctx.dataset) ~n_examples:2));
  ("fig13", fun ctx ->
      let sim = sim ctx ctx.dataset in
      R.render_metrics_by_pair
        ~title:(on ctx "Fig 13: algorithm performance by source-destination pair type")
        (E.fig13 sim)
      ^ R.render_failed_cells ~title:"Failed simulation cells" sim.E.sim_failed);
  ("fig14", fun ctx ->
      R.render_hop_rates ~title:(on ctx "Fig 14: mean contact rate of nodes at each hop")
        (E.fig14 (study ctx ctx.dataset)));
  ("fig15", fun ctx ->
      R.render_hop_ratios ~title:(on ctx "Fig 15: consecutive-hop rate ratios")
        (E.fig15 (study ctx ctx.dataset)));
  ("model-mean", fun _ ->
      R.render_model_rows
        ~title:"M01: homogeneous model, mean paths per node E[S(t)] (N=200, lambda=0.5)"
        (E.model_mean_table ~n:200 ~lambda:0.5 ~times:model_times ~runs:60 ()));
  ("model-variance", fun _ ->
      R.render_model_rows
        ~title:"M02: homogeneous model, second moment E[S(t)^2] (N=200, lambda=0.5)"
        (E.model_second_moment_table ~n:200 ~lambda:0.5 ~times:model_times ~runs:60 ())
      ^ "\n\nM02b: generating-function blow-up times T_C(x)\n"
      ^ String.concat "\n"
          (List.map
             (fun (x, tc) ->
               match tc with
               | Some t -> Printf.sprintf "  x=%.2f  T_C=%.3f" x t
               | None -> Printf.sprintf "  x=%.2f  (no blow-up)" x)
             (E.model_blowup_table ~n:200 ~lambda:0.5 ~xs:[ 1.01; 1.1; 1.5; 2.0; 4.0 ])));
  ("model-inhomog", fun _ ->
      R.render_quadrants
        ~title:"M03: two-class model quadrants (N=98, lambda_in=0.03/s, lambda_out=0.005/s, 3 h)"
        (E.model_quadrant_table ()));

  (* ---- Related-work check and design ablations ---- *)
  ("r01-intercontact", fun _ ->
      (* Hui et al. / Chaintreau et al.: the aggregate inter-contact
         distribution has a heavy, approximately power-law body. *)
      let rows =
        List.map
          (fun (d : Dataset.t) ->
            let gaps = Intercontact.aggregate_gaps (Dataset.generate d) in
            let alpha =
              match Intercontact.tail_exponent gaps with
              | Some a -> Printf.sprintf "%.2f" a
              | None -> "-"
            in
            let q p = Printf.sprintf "%.0f" (Quantile.quantile gaps p) in
            [ d.label; string_of_int (Array.length gaps); q 0.5; q 0.9; q 0.99; alpha ])
          Dataset.all
      in
      "== R01 (related work): aggregate inter-contact times ==\n"
      ^ Table.render
          ~align:[ Table.Left; Right; Right; Right; Right; Right ]
          ~header:[ "dataset"; "gaps"; "median (s)"; "p90"; "p99"; "Hill alpha" ]
          rows
      ^ "\n(heavy inter-contact tails, as in Hui et al. WDTN'05)");
  ("r02-growth", fun ctx ->
      (* §5.2's subset-explosion claim, measured: the arrival staircase
         at a high-rate destination grows faster than at a low-rate
         one. *)
      let study = study ctx ctx.dataset in
      let fits =
        List.filter_map
          (fun (m : E.message_result) ->
            if Array.length m.arrival_times < 50 then None
            else begin
              let t1 = m.arrival_times.(0) in
              let points =
                Array.to_list m.arrival_times |> List.mapi (fun i t -> (t -. t1, float_of_int (i + 1)))
              in
              match Regression.exponential_rate points with
              | fit when Float.is_finite fit.slope && fit.slope > 0. -> Some (m.pair, fit.slope)
              | _ -> None
              | exception Invalid_argument _ -> None
            end)
          study.messages
      in
      let row label keep =
        match List.filter_map (fun (p, r) -> if keep p then Some r else None) fits with
        | [] -> [ label; "0"; "-"; "-" ]
        | rates -> count_row label "%.3f" 0.75 (Array.of_list rates)
      in
      let is_in_dst = function Classify.In_in | Classify.Out_in -> true | _ -> false in
      "== " ^ on ctx "R02 (section 5.2): explosion growth rate by destination class" ^ " ==\n"
      ^ Table.render
          ~align:[ Table.Left; Right; Right; Right ]
          ~header:[ "destination"; "msgs"; "median rate (1/s)"; "q3" ]
          [ row "in (high-rate)" is_in_dst; row "out (low-rate)" (fun p -> not (is_in_dst p)) ]
      ^ Printf.sprintf
          "\n(population median contact rate: %.4f /s — subset explosion runs at\ncontact-rate speed, faster toward high-rate destinations)"
          (Classify.median_rate study.classify));
  ("abl-replication", fun ctx ->
      (* The cost question the paper leaves open: the success/delay/copies
         frontier across replication budgets. *)
      let trace = Dataset.(generate conext06_am) in
      let spec =
        {
          Runner.workload = Workload.paper_spec ~n_nodes:(Trace.n_nodes trace);
          seeds = Runner.default_seeds (Int.max 1 ((ctx.scale.E.seeds / 2) + 1));
        }
      in
      let contenders =
        [
          ("Epidemic", Epidemic.factory);
          ("Random p=0.50", Randomized.factory ~p:0.5 ());
          ("Random p=0.10", Randomized.factory ~p:0.1 ());
          ("Spray&Wait L=32", Spray_wait.factory ~l:32 ());
          ("Spray&Wait L=8", Spray_wait.factory ~l:8 ());
          ("Spray&Wait L=2", Spray_wait.factory ~l:2 ());
          ("Delegation(rate)", Delegation.factory ());
          ("Delegation(dest)", Delegation.factory ~quality:Delegation.Destination_frequency ());
          ("BubbleRap", Bubble_rap.factory ());
          ("Two-Hop", Two_hop.factory);
          ("Direct", Direct.factory);
        ]
      in
      let rows =
        List.map2
          (fun (label, _) outcomes -> (label, Metrics.pool outcomes))
          contenders
          (Runner.outcomes_many ?jobs:ctx.jobs ~telemetry:ctx.telemetry ~trace ~spec
             ~factories:(List.map snd contenders) ())
      in
      R.render_metrics
        ~title:(Printf.sprintf "A01: replication budget vs delivery (%s)" Dataset.conext06_am.label)
        rows);
  ("abl-ttl", fun ctx ->
      (* Sensitivity to message lifetime under epidemic forwarding. *)
      let trace = Dataset.generate ctx.dataset in
      let messages =
        Workload.generate ~rng:(Rng.create ~seed:1000L ())
          (Workload.paper_spec ~n_nodes:(Trace.n_nodes trace))
      in
      let schedule = Engine.prepare ~telemetry:ctx.telemetry trace in
      let row ttl =
        let m =
          Metrics.of_outcome
            (Engine.run_on ?ttl ~telemetry:ctx.telemetry schedule ~messages
               (Epidemic.factory trace))
        in
        [
          (match ttl with None -> "unbounded" | Some t -> Printf.sprintf "%.0f s" t);
          Printf.sprintf "%.3f" m.success_rate;
          (if Float.is_nan m.mean_delay then "-" else Printf.sprintf "%.0f" m.mean_delay);
        ]
      in
      "== " ^ on ctx "A02: epidemic success vs message lifetime" ^ " ==\n"
      ^ Table.render
          ~align:[ Table.Left; Right; Right ]
          ~header:[ "TTL"; "success"; "mean delay (s)" ]
          (List.map row [ Some 300.; Some 900.; Some 1800.; Some 3600.; None ])
      ^ "\n(the paper's infinite-buffer/unbounded-lifetime assumption is the last row)");
  ("abl-mixing", fun _ ->
      (* Why the generator needs a location model: a uniformly mixing
         population destroys the long optimal durations of Fig. 4a. *)
      let stats n_locations =
        let cfg = { Generator.default with Generator.n_locations } in
        let trace = Generator.generate ~rng:(Rng.create ~seed:77L ()) cfg in
        let snap = Snapshot.of_trace trace in
        let rng = Rng.create ~seed:78L () in
        let n = Trace.n_nodes trace in
        let durations = ref [] in
        for _ = 1 to 40 do
          let src = Rng.int rng n in
          let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
          let t_create = Rng.float rng 7200. in
          let flood = Reachability.flood snap ~src ~t_create in
          match Reachability.delivery_delay flood ~dst with
          | Some d -> durations := d :: !durations
          | None -> ()
        done;
        count_row (string_of_int n_locations) "%.0f" 0.9 (Array.of_list !durations)
      in
      "== A03: venue fragmentation vs optimal path duration ==\n"
      ^ Table.render
          ~align:[ Table.Right; Right; Right; Right ]
          ~header:[ "locations"; "delivered/40"; "median T1 (s)"; "p90 T1 (s)" ]
          (List.map stats [ 1; 4; 8; 16 ])
      ^ "\n\
         (one location = uniform mixing: deliveries complete within seconds,\n\
         nothing like the paper's Fig. 4a — fragmentation is essential)");
  ("abl-k", fun ctx ->
      (* Sensitivity of the explosion measurement to the truncation k. *)
      let trace = Dataset.generate ctx.dataset in
      let snap = Snapshot.of_trace trace in
      let sample_messages =
        let rng = Rng.create ~seed:79L () in
        let n = Trace.n_nodes trace in
        List.init 25 (fun _ ->
            let src = Rng.int rng n in
            let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
            (src, dst, Rng.float rng 7200.))
      in
      let row k =
        let config = { Enumerate.k; max_hops = None; stop_at_total = Some k; exhaustive = false } in
        let tes =
          List.filter_map
            (fun (src, dst, t_create) ->
              (Explosion.analyze ~n_explosion:k (Enumerate.run ~config snap ~src ~dst ~t_create)).te)
            sample_messages
        in
        count_row (string_of_int k) "%.0f" 0.9 (Array.of_list tes)
      in
      Printf.sprintf "== A04: explosion threshold k vs measured TE (%s, 25 msgs) ==\n"
        ctx.dataset.label
      ^ Table.render
          ~align:[ Table.Right; Right; Right; Right ]
          ~header:[ "k"; "exploded"; "median TE (s)"; "p90 TE (s)" ]
          (List.map row [ 500; 1000; 2000 ])
      ^ "\n\
         (TE grows mildly with k: more paths must arrive; the paper's 2000 is\n\
         far past the knee, so the quadrant structure is insensitive to it)");
  ("serve", fun ctx ->
      (* Whether the adaptive router earns its keep under injected
         faults: the same session, through Serve.handle (the line
         protocol the CLI speaks), routed adaptively over three
         strategies and statically by each one. *)
      let trace = Dataset.generate ctx.dataset in
      let n_nodes = Trace.n_nodes trace in
      let contacts = Array.to_list (Trace.contacts trace) in
      let strategies = [ "epidemic"; "direct"; "two-hop" ] in
      let faults = { Faults.loss = 0.35; crash_rate = 0.; down_time = 300.; jitter = 0.2; seed = 7L } in
      let session_lines =
        let k = ref 0 in
        List.concat_map
          (fun (c : Contact.t) ->
            incr k;
            (* Hex floats: parse back exactly, so the protocol round-trip
               cannot reorder or degenerate short contacts. *)
            let line = Printf.sprintf "%d,%d,%h,%h" c.a c.b c.t_start c.t_end in
            let src = !k * 3 mod n_nodes in
            let dst = (src + 11) mod n_nodes in
            if !k mod 40 <> 0 || src = dst then [ line ]
            else [ line; Printf.sprintf "inject %d %d" src dst; Printf.sprintf "advance %h" c.t_start ])
          contacts
        @ [ Printf.sprintf "advance %h" (Trace.horizon trace +. 3600.) ]
      in
      let delivery_ratio strategies =
        (* The 900 s span bounds both the per-evaluation trace and how
           long an undeliverable message stays live. *)
        let window = { Psn_serve.Window.span = 900.; budget = 100_000; policy = Slide; nodes = 0 } in
        let s =
          match Serve.create { Serve.default_config with window; strategies; faults = Some faults } with
          | Ok s -> s
          | Error msg -> invalid_arg msg
        in
        List.iter (fun line -> match Serve.handle s line with `Reply _ | `Stop _ -> ()) session_lines;
        let summary = Serve.summary s in
        let resolved = summary.s_delivered + summary.s_expired in
        if resolved = 0 then 0. else float_of_int summary.s_delivered /. float_of_int resolved
      in
      let adaptive = delivery_ratio strategies in
      let static = List.map (fun name -> (name, delivery_ratio [ name ])) strategies in
      let best_static = List.fold_left (fun acc (_, r) -> Float.max acc r) 0. static in
      Printf.sprintf
        "== Serve: adaptive vs static routing over %s (%d events) ==\n\
         faults (loss 0.35, jitter 0.2): adaptive %.3f vs static %s (best-static delta %+.3f)"
        ctx.dataset.label (List.length contacts) adaptive
        (String.concat ", " (List.map (fun (name, r) -> Printf.sprintf "%s %.3f" name r) static))
        (adaptive -. best_static));
  ("resilience", fun ctx ->
      (* The robustness claim, quantified: fault intensity swept over
         the six algorithms — delivery, attempts-vs-copies overhead and
         surviving path counts per level. *)
      let scale = { ctx.scale with E.seeds = Int.max 2 ((ctx.scale.E.seeds / 2) + 1) } in
      R.render_resilience
        ~title:(on ctx "Resilience: the six algorithms under injected faults")
        (ctx.resilience scale));
  ]

let ids = List.map fst sections

(* One span per section, so a study shows under the section that
   forced it. *)
let render ctx id =
  match List.assoc_opt id sections with
  | Some render ->
    T.with_span ctx.telemetry ~args:[ ("id", T.Str id) ] "catalogue.section" (fun () ->
        render ctx)
  | None -> invalid_arg (Printf.sprintf "unknown section %s" id)
