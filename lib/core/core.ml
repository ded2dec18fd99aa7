(** Public umbrella for the PSN path-diversity library.

    Reproduction of Erramilli, Chaintreau, Crovella & Diot, "Diversity
    of Forwarding Paths in Pocket Switched Networks" (2007). This
    module flattens the substrate libraries into one namespace:

    - traces: {!Contact}, {!Trace}, {!Generator}, {!Dataset}, {!Trace_io};
    - space-time structure: {!Timegrid}, {!Snapshot}, {!Reachability};
    - the paper's contribution: {!Path}, {!Enumerate}, {!Explosion},
      {!Classify}, {!Hops};
    - analytics: {!Homogeneous}, {!Inhomogeneous}, {!Montecarlo}, {!Ode};
    - forwarding evaluation: {!Message}, {!Workload}, {!Algorithm},
      {!Engine}, {!Faults}, {!Metrics}, {!Runner}, {!Registry};
    - robustness: {!Failpoint}, {!Interrupt};
    - online serving: {!Serve}, {!Serve_window}, {!Serve_protocol},
      {!Multipath};
    - result store: {!Store}, {!Store_codec}, {!Store_key},
      {!Store_memo}, {!Cache}, {!Fnv};
    - telemetry: {!Telemetry}, {!Chrome}, {!Profile}, {!Clock};
    - experiment drivers: {!Experiments}, {!Report};
    - utilities: {!Rng}, {!Dist}, and the statistics toolbox
      ({!Summary}, {!Quantile}, {!Cdf}, {!Histogram}, {!Boxplot},
      {!Confint}, {!Timeseries}, {!Regression}, {!Table}).

    Quickstart:
    {[
      let trace = Core.Dataset.(generate infocom06_am) in
      let snap = Core.Snapshot.of_trace trace in
      let result = Core.Enumerate.run snap ~src:0 ~dst:9 ~t_create:600. in
      let summary = Core.Explosion.analyze ~n_explosion:2000 result in
      match summary.Core.Explosion.te with
      | Some te -> Format.printf "time to explosion: %.0f s@." te
      | None -> print_endline "no explosion within the trace"
    ]} *)

(* Deterministic collections *)
module Det_tbl = Psn_det.Det_tbl

(* Randomness *)
module Rng = Psn_prng.Rng
module Dist = Psn_prng.Dist
module Xoshiro = Psn_prng.Xoshiro
module Splitmix64 = Psn_prng.Splitmix64

(* Statistics *)
module Summary = Psn_stats.Summary
module Quantile = Psn_stats.Quantile
module Cdf = Psn_stats.Cdf
module Histogram = Psn_stats.Histogram
module Boxplot = Psn_stats.Boxplot
module Confint = Psn_stats.Confint
module Timeseries = Psn_stats.Timeseries
module Regression = Psn_stats.Regression
module Table = Psn_stats.Table

(* Traces *)
module Node = Psn_trace.Node
module Contact = Psn_trace.Contact
module Trace = Psn_trace.Trace
module Trace_io = Psn_trace.Trace_io
module Generator = Psn_trace.Generator
module Dataset = Psn_trace.Dataset
module Intercontact = Psn_trace.Intercontact

(* Space-time graph *)
module Timegrid = Psn_spacetime.Timegrid
module Snapshot = Psn_spacetime.Snapshot
module Reachability = Psn_spacetime.Reachability

(* Paths and explosion *)
module Path = Psn_paths.Path
module Enumerate = Psn_paths.Enumerate
module Explosion = Psn_paths.Explosion

(* Analytic models *)
module Ode = Psn_model.Ode
module Homogeneous = Psn_model.Homogeneous
module Montecarlo = Psn_model.Montecarlo
module Inhomogeneous = Psn_model.Inhomogeneous

(* Forwarding simulation *)
module Message = Psn_sim.Message
module Workload = Psn_sim.Workload
module Algorithm = Psn_sim.Algorithm
module Engine = Psn_sim.Engine
module Faults = Psn_sim.Faults
module Metrics = Psn_sim.Metrics
module Runner = Psn_sim.Runner
module Parallel = Psn_sim.Parallel
module Cache = Psn_sim.Cache

(* Robustness (deterministic failure injection, cooperative signals) *)
module Failpoint = Psn_robust.Failpoint
module Interrupt = Psn_robust.Interrupt
module Flight = Psn_robust.Flight

(* Online serving (sliding window, adaptive multipath router) *)
module Serve = Psn_serve.Server
module Serve_window = Psn_serve.Window
module Serve_protocol = Psn_serve.Protocol
module Multipath = Psn_serve.Multipath

(* Telemetry (spans, counters, Chrome-trace and profile exporters) *)
module Telemetry = Psn_telemetry.Telemetry
module Chrome = Psn_telemetry.Chrome
module Profile = Psn_telemetry.Profile
module Clock = Psn_telemetry.Clock
module Hist = Psn_telemetry.Hist
module Openmetrics = Psn_telemetry.Openmetrics

(* Result store (content-addressed memoization) *)
module Store = Psn_store.Store
module Store_codec = Psn_store.Codec
module Store_key = Psn_store.Key
module Store_memo = Psn_store.Memo
module Fnv = Psn_store.Fnv

(* Algorithms *)
module Contact_history = Psn_forwarding.Contact_history
module Epidemic = Psn_forwarding.Epidemic
module Fresh = Psn_forwarding.Fresh
module Greedy = Psn_forwarding.Greedy
module Greedy_total = Psn_forwarding.Greedy_total
module Greedy_online = Psn_forwarding.Greedy_online
module Meed = Psn_forwarding.Meed
module Dynprog = Psn_forwarding.Dynprog
module Direct = Psn_forwarding.Direct
module Randomized = Psn_forwarding.Randomized
module Spray_wait = Psn_forwarding.Spray_wait
module Prophet = Psn_forwarding.Prophet
module Two_hop = Psn_forwarding.Two_hop
module Delegation = Psn_forwarding.Delegation
module Community = Psn_forwarding.Community
module Bubble_rap = Psn_forwarding.Bubble_rap
module Registry = Psn_forwarding.Registry

(* Analyses and drivers (defined in this library) *)
module Classify = Classify
module Hops = Hops
module Experiments = Experiments
module Report = Report
module Export = Export
module Catalogue = Catalogue
