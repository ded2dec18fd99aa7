(* The Bechamel kernel timings of bench/main.ml, on the same inputs,
   recorded as per-layer rows (ns per call, OLS estimate) instead of
   only printed. A traced run measures the kernels of the layers its
   workload runs. *)

open Bechamel

let trace =
  lazy
    (Core.Generator.generate
       ~rng:(Core.Rng.create ~seed:3L ())
       {
         Core.Generator.default with
         Core.Generator.n_mobile = 30;
         n_stationary = 8;
         horizon = 1800.;
         mean_contacts = 40.;
       })

let snap = lazy (Core.Snapshot.of_trace (Lazy.force trace))

let messages =
  lazy
    (Core.Workload.fixed_count
       ~rng:(Core.Rng.create ~seed:4L ())
       { Core.Workload.rate = 0.25; t_start = 0.; t_end = 1200.; n_nodes = 38 }
       ~count:50)

let ns_per_run ~tiny name f =
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second (if tiny then 0.02 else 0.5)) ~kde:None () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  match Test.elements test with
  | [ elt ] -> (
    let raw = Benchmark.run cfg [ Toolkit.Instance.monotonic_clock ] elt in
    match Analyze.OLS.estimates (Analyze.one ols Toolkit.Instance.monotonic_clock raw) with
    | Some [ v ] when Float.is_finite v -> v
    | Some _ | None -> 0.)
  | _ -> 0.

let snapshot_of_trace ~tiny =
  let trace = Lazy.force trace in
  ns_per_run ~tiny "snapshot.of_trace" (fun () -> Core.Snapshot.of_trace trace)

let enumerate_k100 ~tiny =
  let snap = Lazy.force snap in
  ns_per_run ~tiny "enumerate.run(k=100)" (fun () ->
      Core.Enumerate.run
        ~config:{ Core.Enumerate.k = 100; max_hops = None; stop_at_total = Some 500; exhaustive = false }
        snap ~src:0 ~dst:19 ~t_create:60.)

let engine_epidemic50 ~tiny =
  let trace = Lazy.force trace and messages = Lazy.force messages in
  ns_per_run ~tiny "engine.run(epidemic,50msg)" (fun () ->
      Core.Engine.run ~trace ~messages (Core.Epidemic.factory trace))
