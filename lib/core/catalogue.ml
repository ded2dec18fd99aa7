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

(* One analysed trace: its input and the studies over it, each built on
   first use. *)
type slot = { input : E.input Lazy.t; study : E.study Lazy.t; sim : E.sim_study Lazy.t }

type context = {
  chosen : E.input;
  scale : E.scale;
  exec : E.exec;
  faults : Faults.spec option;
  slots : (string * slot) list;
  dump : string option;
  mutable plots : (string * [ `Lines | `Points | `Boxes ] * string list) list;
}

let context ?(exec = E.default_exec) ?dump ?faults ~scale (chosen : E.input) =
  let slot input =
    {
      input;
      study = lazy (E.enumeration_study ~exec ~scale (Lazy.force input));
      sim = lazy (E.sim_study ~exec ~scale (Lazy.force input) Registry.paper_six);
    }
  in
  (* Each preset's trace is generated at most once, in the calling
     domain; the chosen input stands in for the preset it names. *)
  let presets =
    List.map
      (fun (d : Dataset.t) ->
        ( d.name,
          slot
            (if String.equal d.name chosen.name then Lazy.from_val chosen else lazy (E.of_dataset d)) ))
      Dataset.all
  in
  {
    chosen;
    scale;
    exec;
    faults;
    slots =
      (if List.mem_assoc chosen.name presets then presets
       else presets @ [ (chosen.name, slot (Lazy.from_val chosen)) ]);
    dump;
    plots = [];
  }

let scale_line { scale = s; _ } =
  Printf.sprintf "scale: %d messages, k=%d, n*=%d, %d sim seeds" s.E.n_messages s.E.k s.E.k
    s.E.seeds

(* Inputs and studies are shared by every section that reads the same
   trace. *)
let input (s : slot) = Lazy.force s.input
let study (s : slot) = Lazy.force s.study
let sim (s : slot) = Lazy.force s.sim
let preset ctx (d : Dataset.t) = List.assoc d.name ctx.slots
let chosen_slot ctx = List.assoc ctx.chosen.name ctx.slots

(* A single-dataset section's title names the chosen input. *)
let on ctx title = Printf.sprintf "%s (%s)" title ctx.chosen.label

(* A panel over fixed presets also shows the chosen input, so every
   trace can be drawn in every figure. *)
let with_chosen ctx datasets =
  let names = List.map (fun (d : Dataset.t) -> d.name) datasets in
  let names = if List.mem ctx.chosen.name names then names else names @ [ ctx.chosen.name ] in
  List.map (fun name -> List.assoc name ctx.slots) names

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

(* Table cells: the sample size, then each of its [qs]-quantiles, or a
   [-] for each on an empty sample. *)
let quantile_cells fmt qs arr =
  string_of_int (Array.length arr)
  :: List.map
       (fun q -> if Array.length arr = 0 then "-" else Printf.sprintf fmt (Quantile.quantile arr q))
       qs

(* A table row: [label], the sample size, its median and its [q]-quantile. *)
let count_row label fmt q arr = label :: quantile_cells fmt [ 0.5; q ] arr

(* A01's replication budgets: the registry's entries where one matches,
   relabelled so the rows keep their names, and three more budgets of
   the same families under names of their own, which key their stored
   outcomes. *)
let replication_entries =
  let entry name label = { (Result.get_ok (Registry.find name)) with Registry.label } in
  let budget family name label factory = { (entry family label) with Registry.name; factory } in
  [
    entry "epidemic" "Epidemic";
    entry "random" "Random p=0.50";
    budget "random" "random-p0.1" "Random p=0.10" (Randomized.factory ~p:0.1 ());
    budget "spray-wait" "spray-wait-l32" "Spray&Wait L=32" (Spray_wait.factory ~l:32 ());
    entry "spray-wait" "Spray&Wait L=8";
    budget "spray-wait" "spray-wait-l2" "Spray&Wait L=2" (Spray_wait.factory ~l:2 ());
    entry "delegation" "Delegation(rate)";
    entry "delegation-dest" "Delegation(dest)";
    entry "bubble-rap" "BubbleRap";
    entry "two-hop" "Two-Hop";
    entry "direct" "Direct";
  ]

(* Every section as (id, render), in print order. *)
let sections =
  [
  ("fig1", fun ctx ->
      R.render_timeseries ~title:"Fig 1: total contacts over time (60 s bins)"
        (E.fig1 (List.map input (with_chosen ctx Dataset.all))));
  ("fig2", fun _ -> "== Fig 2: example space-time graph ==\n" ^ E.fig2 ());
  ("fig4", fun ctx ->
      let studies = List.map study (with_chosen ctx Dataset.[ infocom06_am; infocom06_pm ]) in
      let a = E.fig4a studies and b = E.fig4b studies in
      let dumped_a = dump_cdfs ctx "fig4a" a in
      let dumped_b = dump_cdfs ctx "fig4b" b in
      R.render_cdfs ~title:"Fig 4a: CDF of optimal path duration (s)" a
      ^ "\n\n"
      ^ R.render_cdfs ~title:"Fig 4b: CDF of time to explosion (s)" b
      ^ dumped_a ^ dumped_b);
  ("fig5", fun ctx ->
      let points = E.fig5 (study (chosen_slot ctx)) in
      R.render_scatter ~title:(on ctx "Fig 5: optimal path duration vs time to explosion") points
      ^ dump ctx "fig5" `Points (fun dir -> [ Export.write_scatter ~dir ~name:"fig5" points ]));
  ("fig6", fun ctx ->
      R.render_histogram ~title:(on ctx "Fig 6: path arrivals after T1, messages with TE >= 150 s")
        (E.fig6 (study (chosen_slot ctx))));
  ("fig7", fun ctx ->
      let cdfs = E.fig7 (List.map input (with_chosen ctx Dataset.all)) in
      R.render_cdfs ~title:"Fig 7: CDF of per-node contact counts" cdfs ^ dump_cdfs ctx "fig7" cdfs);
  ("fig8", fun ctx ->
      R.render_scatter_by_pair ~title:(on ctx "Fig 8: T1 vs TE by source-destination pair type")
        (E.fig8 (study (chosen_slot ctx))));
  ("fig9", fun ctx ->
      with_chosen ctx Dataset.all
      |> List.map (fun (s : slot) ->
             let sim = sim s in
             R.render_metrics ~title:(Printf.sprintf "Fig 9: delay vs success rate (%s)" (input s).label)
               (E.fig9 sim)
             ^ R.render_failed_cells ~title:"Failed simulation cells" sim.E.sim_failed)
      |> String.concat "\n\n");
  ("fig10", fun ctx ->
      with_chosen ctx Dataset.[ infocom06_am; conext06_am ]
      |> List.mapi (fun i (s : slot) ->
             let panel = Printf.sprintf "10%c" (Char.chr (Char.code 'a' + i)) in
             let cdfs = E.fig10 (sim s) in
             R.render_cdfs ~title:(Printf.sprintf "Fig %s: delay distributions (%s)" panel (input s).label)
               cdfs
             ^ dump_cdfs ctx ("fig" ^ panel) cdfs)
      |> String.concat "\n\n");
  ("fig11", fun ctx ->
      R.render_cumulative ~title:(on ctx "Fig 11: cumulative path deliveries over time")
        (E.fig11 (study (chosen_slot ctx))));
  ("fig12", fun ctx ->
      R.render_fig12 ~title:(on ctx "Fig 12: paths taken by forwarding algorithms (example messages)")
        (E.fig12 (study (chosen_slot ctx)) ~n_examples:2));
  ("fig13", fun ctx ->
      let sim = sim (chosen_slot ctx) in
      R.render_metrics_by_pair
        ~title:(on ctx "Fig 13: algorithm performance by source-destination pair type")
        (E.fig13 sim)
      ^ R.render_failed_cells ~title:"Failed simulation cells" sim.E.sim_failed);
  ("fig14", fun ctx ->
      R.render_hop_rates ~title:(on ctx "Fig 14: mean contact rate of nodes at each hop")
        (E.fig14 (study (chosen_slot ctx))));
  ("fig15", fun ctx ->
      R.render_hop_ratios ~title:(on ctx "Fig 15: consecutive-hop rate ratios")
        (E.fig15 (study (chosen_slot ctx))));
  ("model-mean", fun _ ->
      R.render_model_rows
        ~title:"M01: homogeneous model, mean paths per node E[S(t)] (N=200, lambda=0.5)"
        (E.model_mean_table ~n:200 ~lambda:0.5 ~times:model_times ~runs:60));
  ("model-variance", fun _ ->
      R.render_model_rows
        ~title:"M02: homogeneous model, second moment E[S(t)^2] (N=200, lambda=0.5)"
        (E.model_second_moment_table ~n:200 ~lambda:0.5 ~times:model_times ~runs:60)
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
  ("r01-intercontact", fun ctx ->
      (* Hui et al. / Chaintreau et al.: the aggregate inter-contact
         distribution has a heavy, approximately power-law body. *)
      let gaps =
        List.map
          (fun (i : E.input) -> (i.label, Intercontact.aggregate_gaps i.trace))
          (List.map input (with_chosen ctx Dataset.all))
      in
      let row (label, gaps) =
        let alpha =
          match Intercontact.tail_exponent gaps with
          | Some a -> Printf.sprintf "%.2f" a
          | None -> "-"
        in
        (label :: quantile_cells "%.0f" [ 0.5; 0.9; 0.99 ] gaps) @ [ alpha ]
      in
      let cdfs =
        List.filter_map
          (fun (label, gaps) ->
            if Array.length gaps = 0 then None else Some (label, Cdf.of_samples gaps))
          gaps
      in
      "== R01 (related work): aggregate inter-contact times ==\n"
      ^ Table.render
          ~align:[ Table.Left; Right; Right; Right; Right; Right ]
          ~header:[ "dataset"; "gaps"; "median (s)"; "p90"; "p99"; "Hill alpha" ]
          (List.map row gaps)
      ^ "\n(heavy inter-contact tails, as in Hui et al. WDTN'05)"
      ^ dump_cdfs ctx "r01" cdfs);
  ("r02-growth", fun ctx ->
      (* §5.2's subset-explosion claim, measured: the arrival staircase
         at a high-rate destination grows faster than at a low-rate
         one. *)
      let study = study (chosen_slot ctx) in
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
        count_row label "%.3f" 0.75
          (Array.of_list (List.filter_map (fun (p, r) -> if keep p then Some r else None) fits))
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
      let scale = { ctx.scale with E.seeds = Int.max 1 ((ctx.scale.E.seeds / 2) + 1) } in
      let sim =
        E.sim_study ~exec:ctx.exec ~scale (input (preset ctx Dataset.conext06_am))
          replication_entries
      in
      R.render_metrics
        ~title:(Printf.sprintf "A01: replication budget vs delivery (%s)" Dataset.conext06_am.label)
        (E.fig9 sim)
      ^ R.render_failed_cells ~title:"Failed simulation cells" sim.E.sim_failed);
  ("abl-ttl", fun ctx ->
      (* Sensitivity to message lifetime under epidemic forwarding. *)
      let trace = ctx.chosen.trace in
      let messages =
        Workload.generate ~rng:(Rng.create ~seed:1000L ()) (E.paper_workload trace)
      in
      let telemetry = ctx.exec.E.telemetry in
      let schedule = Engine.prepare ~telemetry trace in
      let row ttl =
        let m =
          Metrics.of_outcome
            (Engine.run_on ?ttl ~telemetry schedule ~messages
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
          let t_create = Rng.float rng (E.generation_window trace) in
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
      let trace = ctx.chosen.trace in
      let snap = Snapshot.of_trace trace in
      let specs =
        let rng = Rng.create ~seed:79L () in
        let n = Trace.n_nodes trace in
        Array.init 25 (fun _ ->
            let src = Rng.int rng n in
            let dst = (src + 1 + Rng.int rng (n - 1)) mod n in
            (src, dst, Rng.float rng (E.generation_window trace)))
      in
      let row k =
        let config = { Enumerate.k; max_hops = None; stop_at_total = Some k; exhaustive = false } in
        let tes =
          Array.to_list (E.enumerate ~exec:ctx.exec ~trace ~config snap specs)
          |> List.filter_map (fun r -> (Explosion.analyze ~n_explosion:k r).te)
        in
        count_row (string_of_int k) "%.0f" 0.9 (Array.of_list tes)
      in
      Printf.sprintf "== A04: explosion threshold k vs measured TE (%s, 25 msgs) ==\n"
        ctx.chosen.label
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
      let trace = ctx.chosen.trace in
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
        (* Four sessions of about a second each: a signal stops the
           section between them. *)
        Psn_robust.Interrupt.check ();
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
        ctx.chosen.label (List.length contacts) adaptive
        (String.concat ", " (List.map (fun (name, r) -> Printf.sprintf "%s %.3f" name r) static))
        (adaptive -. best_static));
  ("resilience", fun ctx ->
      (* The robustness claim, quantified: fault intensity swept over
         the six algorithms — delivery, attempts-vs-copies overhead and
         surviving path counts per level. *)
      let scale = { ctx.scale with E.seeds = Int.max 2 ((ctx.scale.E.seeds / 2) + 1) } in
      R.render_resilience
        ~title:(on ctx "Resilience: the six algorithms under injected faults")
        (E.resilience_study ~exec:ctx.exec ~scale ?base:ctx.faults ctx.chosen));
  ]

let ids = List.map fst sections

(* One span per section, so a study shows under the section that
   forced it. *)
let render ctx id =
  match List.assoc_opt id sections with
  | Some render ->
    (* A section that runs no sweep (fig12, abl-ttl, the model tables,
       serve) still notices a signal before it starts, and after it
       ends, so it never prints after one. *)
    Psn_robust.Interrupt.check ();
    let text =
      T.with_span ctx.exec.E.telemetry ~args:[ ("id", T.Str id) ] "catalogue.section" (fun () ->
          render ctx)
    in
    Psn_robust.Interrupt.check ();
    text
  | None -> invalid_arg (Printf.sprintf "unknown section %s" id)
