(* Conference day: build a custom venue scenario with the generator's
   full configuration surface — a small workshop (40 participants, one
   big room plus three breakouts, long dwell times, a lunch dip) — then
   ask the question the paper leaves open: how much does restraining
   replication cost once path explosion is on your side?

   Run with: dune exec examples/conference_day.exe *)

let workshop : Core.Generator.config =
  {
    Core.Generator.n_mobile = 36;
    n_stationary = 4;  (* registration desk, coffee corner, two demos *)
    horizon = 6. *. 3600.;  (* a full workshop day *)
    mean_contacts = 260.;
    sociability_floor = 0.02;
    n_locations = 4;
    dwell =
      Core.Dist.Truncated
        { dist = Core.Dist.Exponential { rate = 1. /. 2400. }; lo = 300.; hi = 7200. };
    away_prob = 0.15;
    duration =
      Core.Dist.Truncated
        { dist = Core.Dist.Exponential { rate = 1. /. 180. }; lo = 15.; hi = 2400. };
    (* the lunch dip: last third of the morning data at half intensity *)
    profile = Core.Generator.Dropoff { from_frac = 0.66; factor = 0.5 };
    scan_interval = Some 120.;  (* Bluetooth inquiry every two minutes *)
  }

let () =
  let trace = Core.Generator.generate ~rng:(Core.Rng.create ~seed:2026L ()) workshop in
  Format.printf "A synthetic workshop day:@.%a@.@." Core.Trace.pp_stats trace;

  (* Messages for the first two thirds of the day. *)
  let spec =
    {
      Core.Runner.workload =
        {
          Core.Workload.rate = 1. /. 20.;
          t_start = 0.;
          t_end = Core.Trace.horizon trace *. 2. /. 3.;
          n_nodes = Core.Trace.n_nodes trace;
        };
      seeds = Core.Runner.default_seeds 3;
    }
  in
  (* Epidemic against the replication-limited alternatives: how much
     delivery do you give up for how much transmission cost? *)
  let contenders =
    [
      ("Epidemic (flood everything)", Core.Epidemic.factory);
      ("Spray&Wait L=16", Core.Spray_wait.factory ~l:16 ());
      ("Spray&Wait L=4", Core.Spray_wait.factory ~l:4 ());
      ("Random p=0.25", Core.Randomized.factory ~p:0.25 ());
      ("PRoPHET", Core.Prophet.factory ());
      ("Direct delivery", Core.Direct.factory);
    ]
  in
  Format.printf "%-28s %9s %12s %10s@." "algorithm" "success" "mean delay" "copies";
  List.iter2
    (fun (label, _) outcomes ->
      let m = Core.Metrics.pool outcomes in
      Format.printf "%-28s %9.3f %10.0f s %10d@." label m.Core.Metrics.success_rate
        m.Core.Metrics.mean_delay m.Core.Metrics.copies)
    contenders
    (Core.Runner.outcomes_many ~trace ~spec ~factories:(List.map snd contenders) ());

  (* The paper's intuition check: even with a tiny copy budget, spray
     and wait rides the same path explosion that epidemic does — the
     delivery gap is small, the cost gap is enormous. *)
  Format.printf
    "@.Replication buys delay, not much success: once the message reaches a few@.high-rate nodes, path explosion does the rest (Section 6.2 of the paper).@."
