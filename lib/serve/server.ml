module Trace = Psn_trace.Trace
module Contact = Psn_trace.Contact
module Engine = Psn_sim.Engine
module Message = Psn_sim.Message
module Faults = Psn_sim.Faults
module Parallel = Psn_sim.Parallel
module Enumerate = Psn_paths.Enumerate
module Snapshot_ = Psn_spacetime.Snapshot
module Registry = Psn_forwarding.Registry
module Store = Psn_store.Store
module Key = Psn_store.Key
module Failpoint = Psn_robust.Failpoint
module Flight = Psn_robust.Flight
module T = Psn_telemetry.Telemetry
module Hist = Psn_telemetry.Hist
module Openmetrics = Psn_telemetry.Openmetrics

type config = {
  window : Window.config;
  delta : float;
  k : int;
  strategies : string list;
  router : Multipath.config;
  faults : Psn_sim.Faults.spec option;
}

let default_config =
  {
    window = { Window.span = 3600.; budget = 200_000; policy = Window.Slide; nodes = 0 };
    delta = 10.;
    k = 64;
    strategies = [];
    router = Multipath.default_config;
    faults = None;
  }

type live = {
  l_id : int;
  l_src : int;
  l_dst : int;
  l_t : float;  (* absolute stream time of creation *)
  l_entry : Registry.entry;
}

type t = {
  cfg : config;
  entries : Registry.entry array;  (* resolved cfg.strategies, in order *)
  mutable window : Window.t;
  mutable router : Multipath.t;
  mutable live : live list;  (* ascending l_id *)
  mutable next_id : int;
  mutable delivered : int;
  mutable expired : int;
  mutable snapshots : int;  (* protocol-level snapshot commands served *)
  mutable snap_writes : int;  (* every write, incl. drains (failpoint key) *)
  mutable advances : int;
  (* Value histograms over simulated quantities: part of the session
     state (snapshotted, reported by [metrics]), never wall time. *)
  h_delay : Hist.t;  (* delivery delay, simulated seconds *)
  h_batch : Hist.t;  (* contacts ingested between advances *)
  mutable pending_ingest : int;  (* accepted since the last advance *)
  jobs : int;
  chunk : int option;
  store : Store.t option;
  session : string;
  telemetry : T.sink;
}

(* Every float a client sees goes through one formatter so transcripts
   are stable; snapshots use hex floats instead (exact round-trip). *)
let g v = Printf.sprintf "%g" v
let h v = Printf.sprintf "%h" v

(* ---- construction --------------------------------------------------- *)

let resolve_strategies names =
  let names = match names with [] -> List.map (fun e -> e.Registry.name) Registry.online | l -> l in
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | name :: rest -> (
      match Registry.find name with
      | Error _ as e -> e
      | Ok entry ->
        if not entry.Registry.online then
          Error
            (Printf.sprintf
               "strategy %S is an oracle (whole-trace knowledge); serving needs online \
                strategies"
               name)
        else resolve (entry :: acc) rest)
  in
  resolve [] names

let create ?(telemetry = T.Sink.null) ?store ?(session = "default") ?(jobs = 1) ?chunk cfg =
  if jobs < 1 then Error (Printf.sprintf "jobs must be at least 1 (got %d)" jobs)
  else if not (cfg.delta > 0. && Float.is_finite cfg.delta) then
    Error (Printf.sprintf "delta must be positive and finite (got %g)" cfg.delta)
  else if cfg.k < 1 then Error (Printf.sprintf "k must be at least 1 (got %d)" cfg.k)
  else begin
    match
      Option.fold ~none:(Ok ()) ~some:Faults.validate cfg.faults
    with
    | Error reason -> Error ("faults: " ^ reason)
    | Ok () -> (
      match resolve_strategies cfg.strategies with
      | Error _ as e -> e
      | Ok entries -> (
        match Multipath.create cfg.router ~names:(List.map (fun e -> e.Registry.name) entries) with
        | Error _ as e -> e
        | Ok router -> (
          match Window.create cfg.window with
          | Error _ as e -> e
          | Ok window ->
            Ok
              {
                cfg;
                entries = Array.of_list entries;
                window;
                router;
                live = [];
                next_id = 0;
                delivered = 0;
                expired = 0;
                snapshots = 0;
                snap_writes = 0;
                advances = 0;
                h_delay = Hist.create ();
                h_batch = Hist.create ();
                pending_ingest = 0;
                jobs;
                chunk;
                store;
                session;
                telemetry;
              })))
  end

(* ---- shared query plumbing ------------------------------------------ *)

let err what reason = [ Printf.sprintf "err %s: %s" what reason ]

let compile_faults t wtrace =
  Option.map
    (fun spec ->
      Faults.compile ~n_nodes:(Trace.n_nodes wtrace) ~horizon:(Trace.horizon wtrace) spec)
    t.cfg.faults

(* Reasons returned here are wrapped as [err what: reason] by the
   handlers, so they name the offending value, not the command. *)
let check_endpoints t ~src ~dst =
  let n = Window.n_nodes t.window in
  if src = dst then Error "source and destination must differ"
  else if src >= n || dst >= n then
    Error (Printf.sprintf "node n%d outside the observed population of %d" (Int.max src dst) n)
  else Ok ()

(* Query times are absolute stream times inside [start, now). *)
let query_time t = function
  | None -> Ok (Window.start t.window)
  | Some tt ->
    if tt < Window.start t.window then
      Error
        (Printf.sprintf "time %s is behind the window start %s" (g tt) (g (Window.start t.window)))
    else if tt >= Window.now t.window then
      Error (Printf.sprintf "time %s is not before now %s" (g tt) (g (Window.now t.window)))
    else Ok tt

(* The validation [paths] and [delivery] share, in reply order:
   endpoints, then the window trace, then the query time. Yields the
   window trace and the query time relative to its start, or the
   [err what] reply. *)
let query_window t what ~src ~dst t_opt =
  let ( let* ) = Result.bind in
  Result.map_error (err what)
    (let* () = check_endpoints t ~src ~dst in
     let* wtrace = Window.trace t.window in
     let* t_abs = query_time t t_opt in
     Ok (wtrace, t_abs -. Window.start t.window))

(* One schedule per query: the window trace degraded by the query's
   plan and sorted once, shared read-only by every task of the fan-out. *)
let prepare t wtrace = Engine.prepare ?faults:(compile_faults t wtrace) wtrace

(* Run one (message, strategy) evaluation against the window trace.
   Construction happens inside the task so parallel fan-out shares
   nothing mutable (the schedule is immutable); the outcome is a pure
   function of the arguments. *)
let evaluate ~schedule ~wtrace scratch (entry : Registry.entry) ~src ~dst ~t_rel =
  let msg = Message.make ~id:0 ~src ~dst ~t_create:t_rel in
  Engine.run_on ~scratch schedule ~messages:[ msg ] (entry.Registry.factory wtrace)

(* Index-keyed fan-out: each worker domain gets a fresh scratch via
   map_env, linear in the window's population. Outcomes are
   bit-identical for any [jobs] × [chunk] — the serve determinism
   tests compare whole transcripts across them. *)
let fan_out t tasks eval =
  Parallel.map_env ~jobs:t.jobs ?chunk:t.chunk ~env:Engine.scratch (fun s _sink x -> eval s x) tasks

let outcome_delivery (o : Engine.outcome) =
  let r = o.Engine.records.(0) in
  (r.Engine.delivered, r.Engine.copies, r.Engine.attempts)

let loss_fraction ~copies ~attempts =
  if attempts = 0 then 0. else float_of_int (attempts - copies) /. float_of_int attempts

(* ---- ingest and advance --------------------------------------------- *)

let ingest t c =
  T.with_span t.telemetry "serve.ingest" @@ fun () ->
  Failpoint.trigger ~key:(Int64.of_int (Window.counters t.window).Window.ingested) "serve.ingest";
  match Window.ingest t.window c with
  | Error reason -> err "ingest" reason
  | Ok Window.Accepted ->
    T.count t.telemetry "serve.ingested" 1;
    t.pending_ingest <- t.pending_ingest + 1;
    []
  | Ok Window.Rejected_over_budget ->
    T.count t.telemetry "serve.dropped" 1;
    Flight.note "serve.drop"
      [
        ("budget", string_of_int (Window.config t.window).Window.budget);
        ("dropped", string_of_int (Window.counters t.window).Window.dropped);
      ];
    [
      Printf.sprintf "drop budget=%d dropped=%d" (Window.config t.window).Window.budget
        (Window.counters t.window).Window.dropped;
    ]

(* Re-evaluate the live messages against the freshly slid window.
   Observation order is fixed (expiries in id order, then deliveries
   in id order) whatever the fan-out schedule, so the router's EWMA
   state — and with it every later reply — is schedule-independent. *)
let evaluate_live t =
  let t0 = Window.start t.window in
  let now = Window.now t.window in
  let expired = List.filter (fun l -> l.l_t < t0) t.live in
  let expired_lines =
    List.map
      (fun l ->
        t.expired <- t.expired + 1;
        T.count t.telemetry "serve.expired" 1;
        Multipath.observe t.router l.l_entry.Registry.name ~delivered:false ~delay:None ~loss:0.;
        Printf.sprintf "expired msg=%d algo=%s" l.l_id l.l_entry.Registry.name)
      expired
  in
  let ready = List.filter (fun l -> l.l_t >= t0 && l.l_t < now) t.live in
  let evaluated =
    match (ready, Window.trace t.window) with
    | [], _ | _, Error _ -> []
    | ready, Ok wtrace ->
      let schedule = prepare t wtrace in
      let tasks = Array.of_list ready in
      let outcomes =
        fan_out t tasks (fun scratch l ->
            evaluate ~schedule ~wtrace scratch l.l_entry ~src:l.l_src ~dst:l.l_dst
              ~t_rel:(l.l_t -. t0))
      in
      List.mapi (fun i l -> (l, outcomes.(i))) ready
  in
  let delivered_ids = ref [] in
  let delivered_lines =
    List.filter_map
      (fun (l, outcome) ->
        match outcome_delivery outcome with
        | None, _, _ -> None
        | Some t_del, copies, attempts ->
          let delay = t_del -. (l.l_t -. t0) in
          t.delivered <- t.delivered + 1;
          T.count t.telemetry "serve.delivered" 1;
          Hist.add t.h_delay delay;
          T.hist t.telemetry "serve.delivery_delay_s" delay;
          delivered_ids := l.l_id :: !delivered_ids;
          Multipath.observe t.router l.l_entry.Registry.name ~delivered:true ~delay:(Some delay)
            ~loss:(loss_fraction ~copies ~attempts);
          Some
            (Printf.sprintf "delivered msg=%d algo=%s delay=%s copies=%d attempts=%d" l.l_id
               l.l_entry.Registry.name (g delay) copies attempts))
      evaluated
  in
  let gone = !delivered_ids in
  t.live <- List.filter (fun l -> l.l_t >= t0 && not (List.mem l.l_id gone)) t.live;
  expired_lines @ delivered_lines

let advance t target =
  T.with_span t.telemetry "serve.advance" @@ fun () ->
  t.advances <- t.advances + 1;
  Failpoint.trigger ~key:(Int64.of_int t.advances) "serve.evict";
  match Window.advance t.window target with
  | Error reason -> err "advance" reason
  | Ok evicted ->
    (* One advance closes one ingest batch, even an empty one: the
       batch-size distribution is a statement about stream shape, and
       idle advances are part of that shape. *)
    Hist.add t.h_batch (float_of_int t.pending_ingest);
    T.hist t.telemetry "serve.ingest_batch" (float_of_int t.pending_ingest);
    t.pending_ingest <- 0;
    if evicted > 0 then
      Flight.note "serve.evict"
        [ ("evicted", string_of_int evicted); ("now", g (Window.now t.window)) ];
    let lines = evaluate_live t in
    T.hist t.telemetry "serve.window_size" (float_of_int (Window.size t.window));
    T.hist t.telemetry "serve.live_messages" (float_of_int (List.length t.live));
    Printf.sprintf "advance now=%s t0=%s contacts=%d evicted=%d"
      (g (Window.now t.window))
      (g (Window.start t.window))
      (Window.size t.window) evicted
    :: lines

(* ---- queries -------------------------------------------------------- *)

let inject t ~src ~dst t_opt =
  T.with_span t.telemetry "serve.query" ~args:[ ("kind", T.Str "inject") ] @@ fun () ->
  match check_endpoints t ~src ~dst with
  | Error reason -> err "inject" reason
  | Ok () ->
    let t_abs = match t_opt with None -> Window.now t.window | Some tt -> tt in
    if t_abs < Window.start t.window then
      err "inject"
        (Printf.sprintf "time %s is behind the window start %s" (g t_abs)
           (g (Window.start t.window)))
    else begin
      let name = Multipath.pick t.router in
      let entry =
        (* the router's names are the entries' names, in order: [create]
           builds it from them and [Multipath.load] accepts no others *)
        Array.to_list t.entries |> List.find (fun e -> String.equal e.Registry.name name)
      in
      let id = t.next_id in
      t.next_id <- id + 1;
      t.live <- t.live @ [ { l_id = id; l_src = src; l_dst = dst; l_t = t_abs; l_entry = entry } ];
      T.count t.telemetry "serve.injected" 1;
      [ Printf.sprintf "msg id=%d algo=%s t=%s" id name (g t_abs) ]
    end

let paths t ~src ~dst t_opt =
  T.with_span t.telemetry "serve.query" ~args:[ ("kind", T.Str "paths") ] @@ fun () ->
  match query_window t "paths" ~src ~dst t_opt with
  | Error reply -> reply
  | Ok (wtrace, t_rel) -> (
    let observed =
      match compile_faults t wtrace with
      | None -> wtrace
      | Some plan -> Faults.degrade plan wtrace
    in
    let config =
      { Enumerate.k = t.cfg.k; max_hops = None; stop_at_total = None; exhaustive = false }
    in
    match
      Enumerate.run ~config
        (Snapshot_.of_trace ~delta:t.cfg.delta observed)
        ~src ~dst ~t_create:t_rel
    with
    | exception Invalid_argument reason -> err "paths" reason
    | res ->
      let n = Array.length res.Enumerate.arrivals in
      let optimal =
        match Enumerate.first_arrival res with
        | None -> "-"
        | Some a -> g a.Enumerate.duration
      in
      let node_div, edge_div =
        match
          Multipath.diversity
            (Array.to_list res.Enumerate.arrivals
            |> List.map (fun (a : Enumerate.arrival) -> a.Enumerate.path))
        with
        | None -> ("-", "-")
        | Some (nd, ed) -> (g nd, g ed)
      in
      [
        Printf.sprintf "paths n=%d optimal=%s node_div=%s edge_div=%s steps=%d" n optimal
          node_div edge_div res.Enumerate.steps_processed;
      ])

let delivery t ~src ~dst t_opt =
  T.with_span t.telemetry "serve.query" ~args:[ ("kind", T.Str "delivery") ] @@ fun () ->
  match query_window t "delivery" ~src ~dst t_opt with
  | Error reply -> reply
  | Ok (wtrace, t_rel) -> (
    match
      let schedule = prepare t wtrace in
      fan_out t t.entries (fun scratch entry ->
          evaluate ~schedule ~wtrace scratch entry ~src ~dst ~t_rel)
    with
    | exception Invalid_argument reason -> err "delivery" reason
    | outcomes ->
      (* Probes are observations too: asking "who would deliver?"
         teaches the router, in entry order, deterministically. *)
      let lines =
        Array.to_list
          (Array.mapi
             (fun i outcome ->
               let entry = t.entries.(i) in
               let delivered, copies, attempts = outcome_delivery outcome in
               let loss = loss_fraction ~copies ~attempts in
               let delay = Option.map (fun td -> td -. t_rel) delivered in
               Multipath.observe t.router entry.Registry.name
                 ~delivered:(Option.is_some delivered) ~delay ~loss;
               Printf.sprintf "probe algo=%s delivered=%s delay=%s copies=%d attempts=%d loss=%s"
                 entry.Registry.name
                 (if Option.is_some delivered then "yes" else "no")
                 (match delay with None -> "-" | Some d -> g d)
                 copies attempts (g loss))
             outcomes)
      in
      lines @ [ Printf.sprintf "pick algo=%s" (Multipath.pick t.router) ])

let route t =
  T.with_span t.telemetry "serve.query" ~args:[ ("kind", T.Str "route") ] @@ fun () ->
  Printf.sprintf "pick algo=%s" (Multipath.pick t.router)
  :: List.map
       (fun (name, w) ->
         Printf.sprintf "weight algo=%s w=%s obs=%d" name (g w)
           (Multipath.observations t.router name))
       (Multipath.weights t.router)

type summary = {
  s_now : float;
  s_start : float;
  s_contacts : int;
  s_peak : int;
  s_nodes : int;
  s_live : int;
  s_ingested : int;
  s_evicted : int;
  s_budget_evicted : int;
  s_dropped : int;
  s_delivered : int;
  s_expired : int;
  s_snapshots : int;
}

let summary t =
  let c = Window.counters t.window in
  {
    s_now = Window.now t.window;
    s_start = Window.start t.window;
    s_contacts = Window.size t.window;
    s_peak = Window.peak t.window;
    s_nodes = Window.n_nodes t.window;
    s_live = List.length t.live;
    s_ingested = c.Window.ingested;
    s_evicted = c.Window.evicted;
    s_budget_evicted = c.Window.budget_evicted;
    s_dropped = c.Window.dropped;
    s_delivered = t.delivered;
    s_expired = t.expired;
    s_snapshots = t.snapshots;
  }

(* The router's raw EWMA table, one reply line per strategy in
   registration order — what makes an adaptive-vs-static delivery gap
   diagnosable from a live session. *)
let strategy_lines t =
  List.map
    (fun (name, (obs, success, delay, has_delay, loss)) ->
      Printf.sprintf "strat algo=%s obs=%d success=%s delay=%s loss=%s score=%s" name obs
        (g success)
        (if has_delay then g delay else "-")
        (g loss)
        (g (Multipath.score t.router name)))
    (Multipath.dump t.router)

let stats t =
  T.with_span t.telemetry "serve.query" ~args:[ ("kind", T.Str "stats") ] @@ fun () ->
  let s = summary t in
  Printf.sprintf
    "stats now=%s t0=%s contacts=%d peak=%d nodes=%d live=%d ingested=%d evicted=%d \
     budget_evicted=%d dropped=%d delivered=%d expired=%d snapshots=%d"
    (g s.s_now) (g s.s_start) s.s_contacts s.s_peak s.s_nodes s.s_live s.s_ingested s.s_evicted
    s.s_budget_evicted s.s_dropped s.s_delivered s.s_expired s.s_snapshots
  :: strategy_lines t

(* ---- metrics registry ------------------------------------------------ *)

(* Every family here is a value metric — protocol counters, window
   occupancy, router EWMAs, simulated-quantity histograms — so the
   whole registry is byte-identical across [--jobs]×[--chunk] and the
   [metrics] verb can appear in golden transcripts. Wall-time families
   (span-duration histograms) are added by the CLI from its telemetry
   summary, flagged [time_based] so values-only surfaces skip them. *)
let registry t =
  let m = Openmetrics.create () in
  let s = summary t in
  let c ?help name v = Openmetrics.counter m ?help name v in
  let gg ?help name v = Openmetrics.gauge m ?help name v in
  c ~help:"Contacts accepted into the window" "psn_serve_ingested" s.s_ingested;
  c ~help:"Contacts evicted by window slide" "psn_serve_evicted" s.s_evicted;
  c ~help:"Contacts evicted by the memory budget" "psn_serve_budget_evicted" s.s_budget_evicted;
  c ~help:"Contacts rejected under the drop policy" "psn_serve_dropped" s.s_dropped;
  c ~help:"Messages injected" "psn_serve_injected" t.next_id;
  c ~help:"Messages delivered" "psn_serve_delivered" s.s_delivered;
  c ~help:"Messages expired out of the window" "psn_serve_expired" s.s_expired;
  c ~help:"Snapshot commands served" "psn_serve_snapshots" s.s_snapshots;
  c ~help:"Advance commands processed" "psn_serve_advances" t.advances;
  gg ~help:"Stream time" "psn_serve_now_seconds" s.s_now;
  gg ~help:"Window start time" "psn_serve_window_start_seconds" s.s_start;
  gg ~help:"Contacts currently in the window" "psn_serve_window_contacts" (float_of_int s.s_contacts);
  gg ~help:"Window occupancy high-water mark" "psn_serve_window_peak" (float_of_int s.s_peak);
  gg ~help:"Observed node population" "psn_serve_nodes" (float_of_int s.s_nodes);
  gg ~help:"Live (undelivered, unexpired) messages" "psn_serve_live_messages"
    (float_of_int s.s_live);
  List.iter
    (fun (name, (obs, success, delay, has_delay, loss)) ->
      let labels = [ ("algo", name) ] in
      Openmetrics.counter m ~labels ~help:"Delivery observations absorbed per strategy"
        "psn_serve_router_observations" obs;
      Openmetrics.gauge m ~labels ~help:"EWMA delivery success per strategy"
        "psn_serve_router_success" success;
      if has_delay then
        Openmetrics.gauge m ~labels ~help:"EWMA delivery delay per strategy (simulated seconds)"
          "psn_serve_router_delay_seconds" delay;
      Openmetrics.gauge m ~labels ~help:"EWMA transfer-loss fraction per strategy"
        "psn_serve_router_loss" loss;
      Openmetrics.gauge m ~labels ~help:"Routing score: success*(1-loss)/(1+delay)"
        "psn_serve_router_score" (Multipath.score t.router name))
    (Multipath.dump t.router);
  Openmetrics.histogram m ~help:"Delivery delay of completed messages (simulated seconds)"
    "psn_serve_delivery_delay_seconds" t.h_delay;
  Openmetrics.histogram m ~help:"Contacts ingested per advance"
    "psn_serve_ingest_batch_contacts" t.h_batch;
  m

let metrics_text t = Openmetrics.render ~values_only:true (registry t)

let metrics t =
  T.with_span t.telemetry "serve.query" ~args:[ ("kind", T.Str "metrics") ] @@ fun () ->
  (* The exposition ends with "# EOF\n"; as reply lines, drop the
     final empty fragment the trailing newline would produce. *)
  String.split_on_char '\n' (metrics_text t)
  |> List.filter (fun l -> String.length l > 0)

(* ---- snapshot / restore --------------------------------------------- *)

let snapshot_text t =
  let b = Buffer.create 4096 in
  let addf fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  addf "psn-serve-snapshot 2";
  let w = t.cfg.window in
  addf "window %s %d %s %d" (h w.Window.span) w.Window.budget
    (match w.Window.policy with Window.Drop -> "drop" | Window.Slide -> "slide")
    w.Window.nodes;
  addf "enum %s %d" (h t.cfg.delta) t.cfg.k;
  addf "router %s %d" (h t.cfg.router.Multipath.alpha) t.cfg.router.Multipath.explore;
  addf "strategies %d" (Array.length t.entries);
  Array.iter (fun e -> addf "%s" e.Registry.name) t.entries;
  (match t.cfg.faults with
  | None -> addf "faults 0"
  | Some f ->
    addf "faults 1 %s %s %s %s %Ld" (h f.Faults.loss) (h f.Faults.crash_rate)
      (h f.Faults.down_time) (h f.Faults.jitter) f.Faults.seed);
  addf "clock %s %s %d %d"
    (h (Window.now t.window))
    (h (Window.last_start t.window))
    (Window.n_nodes t.window) (Window.peak t.window);
  let c = Window.counters t.window in
  addf "counters %d %d %d %d %d %d %d %d %d %d" c.Window.ingested c.Window.evicted
    c.Window.budget_evicted c.Window.dropped t.next_id t.delivered t.expired t.snapshots
    t.snap_writes t.advances;
  let contacts = Window.contacts t.window in
  addf "contacts %d" (List.length contacts);
  List.iter
    (fun (ct : Contact.t) ->
      addf "%d %d %s %s" ct.Contact.a ct.Contact.b (h ct.Contact.t_start) (h ct.Contact.t_end))
    contacts;
  addf "live %d" (List.length t.live);
  List.iter
    (fun l -> addf "%d %d %d %s %s" l.l_id l.l_src l.l_dst (h l.l_t) l.l_entry.Registry.name)
    t.live;
  let rows = Multipath.dump t.router in
  addf "ewma %d" (List.length rows);
  List.iter
    (fun (name, (obs, success, delay, has_delay, loss)) ->
      addf "%s %d %s %s %d %s" name obs (h success) (h delay) (if has_delay then 1 else 0)
        (h loss))
    rows;
  (* v2: value histograms and the open ingest batch, so a resumed
     server's [metrics] replies continue byte-identically. *)
  addf "pending %d" t.pending_ingest;
  addf "hist delay %s" (Hist.encode t.h_delay);
  addf "hist batch %s" (Hist.encode t.h_batch);
  addf "end";
  Buffer.contents b

let write_snapshot t =
  match t.store with
  | None -> Error "no store configured (pass --store to enable snapshots)"
  | Some store ->
    Failpoint.trigger ~key:(Int64.of_int t.snap_writes) "serve.snapshot";
    let key = Key.named ~family:"serve-snapshot" t.session in
    t.snap_writes <- t.snap_writes + 1;
    (* The snapshot describes the state *including* this write's
       count, so a resumed server's next write lands one later —
       byte-identical counters either side of the crash. *)
    let text = snapshot_text t in
    Store.put_blob store key text;
    T.count t.telemetry "serve.snapshots" 1;
    Ok (Key.to_hex key, String.length text)

(* The protocol-visible snapshot count moves only on the [snapshot]
   command, never on automatic end-of-stream drains — a resumed
   transcript's [stats] lines must match an uninterrupted run's, and
   drains happen exactly at the points an uninterrupted run skips. *)
let snapshot_cmd t =
  T.with_span t.telemetry "serve.query" ~args:[ ("kind", T.Str "snapshot") ] @@ fun () ->
  match t.store with
  | None -> err "snapshot" "no store configured (pass --store to enable snapshots)"
  | Some _ -> (
    t.snapshots <- t.snapshots + 1;
    match write_snapshot t with
    | Error reason -> err "snapshot" reason
    | Ok (hex, bytes) -> [ Printf.sprintf "snapshot key=%s bytes=%d" hex bytes ])

exception Snapshot_malformed of string

let sfail fmt = Printf.ksprintf (fun s -> raise (Snapshot_malformed s)) fmt

(* The v2 reader: one cursor over the lines [snapshot_text] writes.
   The config lines build a server with [create]; every later line is
   read straight into it. Rows go through the checks the live verbs
   run on the same data, so a crafted snapshot is an [Error], never an
   exception in a later reply. *)
let restore ?telemetry ?store ?session ?jobs ?chunk text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let pos = ref 0 in
  let fields () =
    if !pos >= Array.length lines then sfail "truncated snapshot (line %d)" (!pos + 1);
    incr pos;
    String.split_on_char ' ' lines.(!pos - 1) |> List.filter (fun s -> String.length s > 0)
  in
  let bad tag = sfail "bad %s line" tag in
  let line tag = match fields () with t :: rest when String.equal t tag -> rest | _ -> bad tag in
  let typed conv valid what s =
    match conv s with Some v when valid v -> v | _ -> sfail "bad %s: %S" what s
  in
  let int = typed int_of_string_opt (fun _ -> true) in
  let nat = typed int_of_string_opt (fun v -> v >= 0) in
  let float = typed float_of_string_opt Float.is_finite in
  let ok = function Ok v -> v | Error reason -> raise (Snapshot_malformed reason) in
  let rows tag row =
    match line tag with
    | [ n ] -> List.init (nat (tag ^ " count") n) (fun _ -> row (fields ()))
    | _ -> bad tag
  in
  let read () =
    (match line "psn-serve-snapshot" with
    | [ "2" ] -> ()
    | v -> sfail "unsupported snapshot version %S (want 2)" (String.concat " " v));
    let window =
      match line "window" with
      | [ span; budget; policy; nodes ] ->
        {
          Window.span = float "span" span;
          budget = int "budget" budget;
          policy =
            (match policy with
            | "drop" -> Window.Drop
            | "slide" -> Window.Slide
            | other -> sfail "bad policy: %S" other);
          nodes = int "nodes" nodes;
        }
      | _ -> bad "window"
    in
    let delta, k =
      match line "enum" with [ d; k ] -> (float "delta" d, int "k" k) | _ -> bad "enum"
    in
    let router =
      match line "router" with
      | [ a; e ] -> { Multipath.alpha = float "alpha" a; explore = int "explore" e }
      | _ -> bad "router"
    in
    let strategies = rows "strategies" (function [ name ] -> name | _ -> bad "strategy") in
    let faults =
      match line "faults" with
      | [ "0" ] -> None
      | [ "1"; loss; crash; down; jitter; seed ] ->
        Some
          {
            Faults.loss = float "loss" loss;
            crash_rate = float "crash rate" crash;
            down_time = float "down time" down;
            jitter = float "jitter" jitter;
            seed = typed Int64.of_string_opt (fun _ -> true) "fault seed" seed;
          }
      | _ -> bad "faults"
    in
    let cfg = { window; delta; k; strategies; router; faults } in
    let t = ok (create ?telemetry ?store ?session ?jobs ?chunk cfg) in
    let now, last_start, pop, peak =
      match line "clock" with
      | [ now; ls; pop; peak ] ->
        (float "now" now, float "last start" ls, int "population" pop, int "peak" peak)
      | _ -> bad "clock"
    in
    let counters =
      match line "counters" with
      | [ ingested; evicted; budget_evicted; dropped; next_id; delivered; expired; s; w; adv ] ->
        t.next_id <- int "next id" next_id;
        t.delivered <- int "delivered" delivered;
        t.expired <- int "expired" expired;
        t.snapshots <- int "snapshots" s;
        t.snap_writes <- int "snapshot writes" w;
        t.advances <- int "advances" adv;
        {
          Window.ingested = int "ingested" ingested;
          evicted = int "evicted" evicted;
          budget_evicted = int "budget evictions" budget_evicted;
          dropped = int "dropped" dropped;
        }
      | _ -> bad "counters"
    in
    let contacts =
      rows "contacts" (function
        | [ a; b; s; e ] -> ok (Contact.of_fields a b s e)
        | _ -> bad "contact")
    in
    t.window <- ok (Window.restore window ~now ~last_start ~n_nodes:pop ~peak ~counters contacts);
    t.live <-
      rows "live" (function
        | [ id; src; dst; tt; name ] ->
          let l_src = nat "source" src and l_dst = nat "destination" dst in
          ok (check_endpoints t ~src:l_src ~dst:l_dst);
          let l_entry =
            match Array.find_opt (fun e -> String.equal e.Registry.name name) t.entries with
            | Some e -> e
            | None -> sfail "unknown live strategy %S" name
          in
          { l_id = int "message id" id; l_src; l_dst; l_t = float "creation time" tt; l_entry }
        | _ -> bad "live message");
    ok
      (Multipath.load t.router
         (rows "ewma" (function
           | [ name; obs; success; delay; has_delay; loss ] ->
             let has_delay =
               match has_delay with
               | "0" -> false
               | "1" -> true
               | other -> sfail "bad has_delay flag: %S" other
             in
             let obs = int "observations" obs and loss = float "loss" loss in
             (name, (obs, float "success" success, float "delay" delay, has_delay, loss))
           | _ -> bad "ewma row")));
    t.pending_ingest <- (match line "pending" with [ n ] -> nat "pending" n | _ -> bad "pending");
    List.iter
      (fun (what, into) ->
        match line "hist" with
        | w :: code when String.equal w what -> (
          match Hist.decode (String.concat " " code) with
          | Some h -> Hist.merge_into ~into h
          | None -> sfail "bad %s histogram" what)
        | _ -> bad ("hist " ^ what))
      [ ("delay", t.h_delay); ("batch", t.h_batch) ];
    (match line "end" with [] -> () | _ -> bad "end");
    t
  in
  match read () with
  | t -> Ok t
  | exception Snapshot_malformed reason -> Error ("snapshot: " ^ reason)

(* ---- dispatch ------------------------------------------------------- *)

let handle t raw =
  Flight.note "serve.line" [ ("raw", raw) ];
  match Protocol.parse raw with
  | Error reason -> `Reply (err "parse" reason)
  | Ok Protocol.Blank -> `Reply []
  | Ok (Protocol.Contact c) -> `Reply (ingest t c)
  | Ok (Protocol.Advance target) -> `Reply (advance t target)
  | Ok (Protocol.Query q) -> (
    match q with
    | Protocol.Quit -> `Stop [ "bye" ]
    | Protocol.Inject { src; dst; t = tt } -> `Reply (inject t ~src ~dst tt)
    | Protocol.Paths { src; dst; t = tt } -> `Reply (paths t ~src ~dst tt)
    | Protocol.Delivery { src; dst; t = tt } -> `Reply (delivery t ~src ~dst tt)
    | Protocol.Route -> `Reply (route t)
    | Protocol.Stats -> `Reply (stats t)
    | Protocol.Metrics -> `Reply (metrics t)
    | Protocol.Snapshot -> `Reply (snapshot_cmd t))
