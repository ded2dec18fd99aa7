(* serve-session: one client in a closed loop replays a generated
   script through Serve.handle, the function the CLI loop calls. The script streams infocom06_am's contacts in Trace_io
   line order and, at fixed cadences, sends inject + advance,
   delivery, paths and snapshot (store in the run's scratch directory),
   with faults at loss 0.35 and jitter 0.2. Writes (ingest, evict,
   snapshot) sit beside reads; the engine runs many one-message
   simulations over a whole window, so its cost is set-up, not drain;
   enumeration runs at k = 64 on a snapshot rebuilt per query. Window
   and Multipath run only here. *)

open Util
module T = Core.Telemetry
module W = Core.Serve_window

let name = "serve-session"

(* Extra set-ups per untraced run: cheap ones, so enough of them for a
   steady median. *)
let n_setups = 20
let dataset = Core.Dataset.infocom06_am
let span = 1800.
let strategies = [ "epidemic"; "direct"; "two-hop" ]

type kind = Inject | Advance | Delivery | Paths | Snapshot | Stats

type item =
  | Contacts of string array * Core.Contact.t array  (** A run of consecutive contact lines. *)
  | Command of { kind : kind; line : string; src : int; dst : int; t : float }

let spec cfg =
  { Core.Faults.loss = 0.35; crash_rate = 0.; down_time = 300.; jitter = 0.2; seed = sub_seed cfg.seed "faults" }

let server_config cfg =
  {
    Core.Serve.default_config with
    Core.Serve.window = { W.span; budget = 100_000; policy = W.Slide; nodes = 0 };
    strategies;
    faults = Some (spec cfg);
  }

(* Cadences, in contact lines: every 80th is followed by inject +
   advance, every 100th by a delivery probe, every 100th (offset 50) by
   a paths query and every 2500th by a snapshot. Query times sit halfway
   into the live window. Each advance re-evaluates every live message,
   so engine runs grow with the square of the inject rate; at one per
   80 lines a replay of the whole trace takes about 3 s. *)
let script cfg trace =
  let lines =
    String.split_on_char '\n' (Core.Trace_io.to_string trace)
    |> List.filter (fun l -> String.length l > 0 && l.[0] <> '#')
  in
  let lines = if cfg.tiny then List.filteri (fun i _ -> i < 600) lines else lines in
  let rng = Core.Rng.create ~seed:(sub_seed cfg.seed "serve-script") () in
  let items = ref [] and run = ref [] in
  let flush () =
    if not (List.is_empty !run) then begin
      let r = Array.of_list (List.rev !run) in
      items := Contacts (Array.map fst r, Array.map snd r) :: !items;
      run := []
    end
  in
  let cmd kind line ~src ~dst t =
    flush ();
    items := Command { kind; line; src; dst; t } :: !items
  in
  let now = ref 0. and max_id = ref 0 and i = ref 0 in
  let pair () =
    let src = Core.Rng.int rng (!max_id + 1) in
    let r = Core.Rng.int rng !max_id in
    (src, if r >= src then r + 1 else r)
  in
  let t_query () =
    let start = Float.max 0. (!now -. span) in
    start +. (0.5 *. (!now -. start))
  in
  List.iter
    (fun line ->
      match Core.Serve_protocol.parse line with
      | Ok (Core.Serve_protocol.Contact c) ->
        run := (line, c) :: !run;
        incr i;
        now := Float.max !now c.Core.Contact.t_start;
        max_id := Int.max !max_id c.Core.Contact.b;
        let ready = !max_id >= 1 && !now > 0. in
        if ready && !i mod 80 = 0 then begin
          let src, dst = pair () in
          cmd Inject (Printf.sprintf "inject %d %d" src dst) ~src ~dst !now;
          cmd Advance (Printf.sprintf "advance %h" !now) ~src:0 ~dst:0 !now
        end;
        if ready && !i mod 100 = 0 then begin
          let (src, dst), t = (pair (), t_query ()) in
          cmd Delivery (Printf.sprintf "delivery %d %d %h" src dst t) ~src ~dst t
        end;
        if ready && !i mod 100 = 50 then begin
          let (src, dst), t = (pair (), t_query ()) in
          cmd Paths (Printf.sprintf "paths %d %d %h" src dst t) ~src ~dst t
        end;
        if !i mod 2500 = 0 then cmd Snapshot "snapshot" ~src:0 ~dst:0 0.
      | Ok _ | Error _ -> ())
    lines;
  let final = !now +. span in
  cmd Advance (Printf.sprintf "advance %h" final) ~src:0 ~dst:0 final;
  cmd Stats "stats" ~src:0 ~dst:0 0.;
  Array.of_list (List.rev !items)

let n_lines items =
  Array.fold_left (fun acc -> function Contacts (l, _) -> acc + Array.length l | Command _ -> acc + 1) 0 items

type state = { items : item array; store : Core.Store.t; dir : string }

let setup cfg ~sink i =
  let trace, _ = dataset_trace ~sink ~seed:cfg.seed dataset in
  let items = script cfg trace in
  let dir = Filename.concat cfg.work (Printf.sprintf "serve-store-%d" i) in
  { items; store = Core.Store.open_ ~dir (); dir }

let replies server line = match Core.Serve.handle server line with `Reply l | `Stop l -> l

(* ---- the shadow: per-query layer attribution from outside ------------ *)

(* A bench-owned window fed the same lines. At each query it repeats,
   timed, the layer calls the server made on the same inputs and checks
   that they give the server's reply. *)
type shadow = {
  window : W.t;
  mutable live : (int * int * int * float * string) list;  (** id, src, dst, t, algo; ascending id. *)
  scratch : Core.Engine.scratch;
  sink : T.sink;
  ledger : Ledger.t;
  mutable attributed : float;  (** Layer time of the current query. *)
}

let g v = Printf.sprintf "%g" v

let timed sh layer f =
  let v, dt = time f in
  Ledger.add_sample sh.ledger layer dt;
  sh.attributed <- sh.attributed +. dt;
  v

let window_trace sh = timed sh "window.trace" (fun () -> W.trace sh.window)

let compile sh cfg wtrace =
  timed sh "faults.compile" (fun () ->
      Core.Faults.compile ~n_nodes:(Core.Trace.n_nodes wtrace) ~horizon:(Core.Trace.horizon wtrace) (spec cfg))

let evaluate sh ~plan ~wtrace algo ~src ~dst ~t_rel =
  match Core.Registry.find algo with
  | Error e -> failwith e
  | Ok entry ->
    timed sh "engine.call" (fun () ->
        let msg = Core.Message.make ~id:0 ~src ~dst ~t_create:t_rel in
        let o =
          Core.Engine.run ~faults:plan ~scratch:sh.scratch ~telemetry:sh.sink ~trace:wtrace ~messages:[ msg ]
            (entry.Core.Registry.factory wtrace)
        in
        let r = o.Core.Engine.records.(0) in
        (r.Core.Engine.delivered, r.Core.Engine.copies, r.Core.Engine.attempts))

let loss ~copies ~attempts = if attempts = 0 then 0. else float_of_int (attempts - copies) /. float_of_int attempts

let field key line =
  String.split_on_char ' ' line
  |> List.find_map (fun w ->
         let p = key ^ "=" in
         let n = String.length p in
         if String.length w > n && String.equal (String.sub w 0 n) p then Some (String.sub w n (String.length w - n))
         else None)

let starts_with p s = String.length s >= String.length p && String.equal (String.sub s 0 (String.length p)) p

(* Expected reply lines for the query, or [None] when the shadow has no
   opinion (the line is unattributed). *)
let shadow_query cfg sh ~kind ~src ~dst ~t reply =
  match kind with
  | Delivery -> (
    match window_trace sh with
    | Error _ -> None
    | Ok wtrace ->
      let t_rel = t -. W.start sh.window in
      let plan = compile sh cfg wtrace in
      let probes =
        List.map
          (fun algo ->
            let delivered, copies, attempts = evaluate sh ~plan ~wtrace algo ~src ~dst ~t_rel in
            let delay = Option.map (fun td -> td -. t_rel) delivered in
            Printf.sprintf "probe algo=%s delivered=%s delay=%s copies=%d attempts=%d loss=%s" algo
              (if Option.is_some delivered then "yes" else "no")
              (match delay with None -> "-" | Some d -> g d)
              copies attempts
              (g (loss ~copies ~attempts)))
          strategies
      in
      Some (probes, List.filter (starts_with "probe ") reply))
  | Paths -> (
    match window_trace sh with
    | Error _ -> None
    | Ok wtrace -> (
      let t_rel = t -. W.start sh.window in
      let plan = compile sh cfg wtrace in
      let observed = timed sh "faults.degrade" (fun () -> Core.Faults.degrade plan wtrace) in
      let snap = timed sh "snapshot.of_trace" (fun () -> Core.Snapshot.of_trace ~delta:10. observed) in
      let config = { Core.Enumerate.k = 64; max_hops = None; stop_at_total = None; exhaustive = false } in
      match timed sh "enumerate.run" (fun () -> Core.Enumerate.run ~config snap ~src ~dst ~t_create:t_rel) with
      | exception Invalid_argument _ -> None
      | res ->
        Ledger.add_count sh.ledger "enumerate.steps" res.Core.Enumerate.steps_processed;
        Ledger.add_count sh.ledger "enumerate.arrivals" (Array.length res.Core.Enumerate.arrivals);
        if res.Core.Enumerate.stopped_early then Ledger.add_count sh.ledger "enumerate.stopped_early" 1;
        let paths = Array.to_list res.Core.Enumerate.arrivals |> List.map (fun (a : Core.Enumerate.arrival) -> a.Core.Enumerate.path) in
        let div = timed sh "multipath.diversity" (fun () -> Core.Multipath.diversity paths) in
        let nd, ed = match div with None -> ("-", "-") | Some (nd, ed) -> (g nd, g ed) in
        let optimal =
          match Core.Enumerate.first_arrival res with None -> "-" | Some a -> g a.Core.Enumerate.duration
        in
        Some
          ( [
              Printf.sprintf "paths n=%d optimal=%s node_div=%s edge_div=%s steps=%d"
                (Array.length res.Core.Enumerate.arrivals) optimal nd ed res.Core.Enumerate.steps_processed;
            ],
            reply )))
  | Advance ->
    ignore (timed sh "window.advance" (fun () -> W.advance sh.window t));
    let t0 = W.start sh.window and now = W.now sh.window in
    let ready = List.filter (fun (_, _, _, lt, _) -> lt >= t0 && lt < now) sh.live in
    let expected =
      match ready with
      | [] -> []
      | _ :: _ -> (
        match window_trace sh with
        | Error _ -> []
        | Ok wtrace ->
          let plan = compile sh cfg wtrace in
          List.filter_map
            (fun (id, src, dst, lt, algo) ->
              let t_rel = lt -. t0 in
              match evaluate sh ~plan ~wtrace algo ~src ~dst ~t_rel with
              | None, _, _ -> None
              | Some td, copies, attempts ->
                Some
                  (Printf.sprintf "delivered msg=%d algo=%s delay=%s copies=%d attempts=%d" id algo
                     (g (td -. t_rel)) copies attempts))
            ready)
    in
    let gone =
      List.filter_map
        (fun l ->
          if starts_with "delivered " l || starts_with "expired " l then Option.bind (field "msg" l) int_of_string_opt
          else None)
        reply
    in
    sh.live <- List.filter (fun (id, _, _, lt, _) -> lt >= t0 && not (List.mem id gone)) sh.live;
    Some (expected, List.filter (starts_with "delivered ") reply)
  | Inject ->
    (match reply with
    | [ l ] when starts_with "msg " l -> (
      match (Option.bind (field "id" l) int_of_string_opt, field "algo" l) with
      | Some id, Some algo -> sh.live <- sh.live @ [ (id, src, dst, W.now sh.window, algo) ]
      | _ -> ())
    | _ -> ());
    None
  | Snapshot | Stats -> None

(* ---- one replay of the script --------------------------------------- *)

type timings = {
  mutable ingest : (float * int) list;  (** Per contact run: seconds, lines. *)
  mutable latency : (kind * float) list;
  mutable unattributed : float list;
  mutable handled : float;  (** Seconds inside Serve.handle. *)
  mutable shadow_s : float;
}

let rep cfg st ~jobs ~shadow (tm : timings) c =
  let server =
    match Core.Serve.create ~store:st.store ~session:"bench" ~jobs (server_config cfg) with
    | Ok s -> s
    | Error e -> failwith e
  in
  let out = Array.make (Array.length st.items) [] in
  Array.iteri
    (fun idx item ->
      match item with
      | Contacts (lines, contacts) ->
        let t0 = now () in
        let r = Array.fold_left (fun acc line -> List.rev_append (replies server line) acc) [] lines in
        let dt = now () -. t0 in
        tm.ingest <- (dt, Array.length lines) :: tm.ingest;
        tm.handled <- tm.handled +. dt;
        out.(idx) <- List.rev r;
        Option.iter
          (fun sh ->
            let t1 = now () in
            Array.iter (fun ct -> ignore (W.ingest sh.window ct)) contacts;
            tm.shadow_s <- tm.shadow_s +. (now () -. t1))
          shadow
      | Command { kind; line; src; dst; t } ->
        let reply, dt = time (fun () -> replies server line) in
        tm.latency <- (kind, dt) :: tm.latency;
        tm.handled <- tm.handled +. dt;
        out.(idx) <- reply;
        Option.iter
          (fun sh ->
            let t1 = now () in
            sh.attributed <- 0.;
            (match shadow_query cfg sh ~kind ~src ~dst ~t reply with
            | None -> ()
            | Some (expected, actual) ->
              c.attempted <- c.attempted + 1;
              if not (List.equal String.equal expected actual) then c.failed <- c.failed + 1);
            if kind = Snapshot then Ledger.add_sample sh.ledger "store.snapshot" dt
            else if kind <> Inject && kind <> Stats then begin
              Ledger.add_sample sh.ledger "window.size" (float_of_int (W.size sh.window));
              tm.unattributed <- (dt -. sh.attributed) :: tm.unattributed
            end;
            tm.shadow_s <- tm.shadow_s +. (now () -. t1))
          shadow)
    st.items;
  Option.iter (fun sh -> Ledger.add_count sh.ledger "window.evicted" (W.counters sh.window).W.evicted) shadow;
  out

let digests out =
  Array.map (fun lines -> List.fold_left (fun acc l -> digest ~init:acc (l ^ "\n")) 0L lines) out

let run cfg =
  let ledger = Ledger.create () in
  let st, first_setup = setup_once (fun () -> Ledger.traced_if cfg.traced ledger (fun sink -> setup cfg ~sink 0)) in
  let between, setup_samples = spread_setups ~n:n_setups (fun i -> rm_rf (setup cfg ~sink:T.Sink.null i).dir) in
  (* The server fans each query out over the machine's cores, as
     `psn serve -j N` does: a single-domain session stays on one core,
     and with cores of unequal speed its throughput split into two modes
     run to run. A traced run serves at jobs 1 instead, so that each
     query's layer calls, repeated one after another, add up to its
     latency. The other setting checks the transcript. *)
  let jobs = if cfg.traced then 1 else cfg.jobs in
  let c = checks () in
  let lines = n_lines st.items in
  let tm = { ingest = []; latency = []; unattributed = []; handled = 0.; shadow_s = 0. } in
  let first = ref [||] in
  let walls = ref [] and traced_walls = ref [] and traced_handled = ref 0. and traced_shadow = ref 0. in
  let one ~traced i =
    let shadow, collector =
      if traced then begin
        let col = T.create () in
        match W.create (server_config cfg).Core.Serve.window with
        | Error e -> failwith e
        | Ok window ->
          (Some { window; live = []; scratch = Core.Engine.scratch (); sink = T.sink col; ledger; attributed = 0. }, Some col)
      end
      else (None, None)
    in
    let handled0 = tm.handled and shadow0 = tm.shadow_s in
    let out, wall = time (fun () -> rep cfg st ~jobs ~shadow tm c) in
    Option.iter (fun col -> Ledger.absorb ledger (T.close col)) collector;
    if traced then begin
      traced_walls := wall :: !traced_walls;
      traced_handled := !traced_handled +. (tm.handled -. handled0);
      traced_shadow := !traced_shadow +. (tm.shadow_s -. shadow0)
    end
    else walls := wall :: !walls;
    (* Every reply line is an operation; an err reply is a failed one. *)
    Array.iter
      (List.iter (fun l ->
           c.attempted <- c.attempted + 1;
           if starts_with "err" l then c.failed <- c.failed + 1))
      out;
    let d = digests out in
    if cfg.corrupt && i = 1 then d.(0) <- Int64.logxor d.(0) 1L;
    if i = 0 then begin
      first := d;
      check_reference cfg c ~workload:name ~ops:(Array.length d) (combine d)
    end
    else check_all c ~expected:!first d
  in
  let phase = timed_phase cfg ~between one in
  (* jobs 1 against jobs nproc: the transcript must not change. *)
  let scratch_tm = { ingest = []; latency = []; unattributed = []; handled = 0.; shadow_s = 0. } in
  let other = if jobs = 1 then cfg.jobs else 1 in
  check_all c ~expected:!first (digests (rep cfg st ~jobs:other ~shadow:None scratch_tm c));
  let fsck = Core.Store.verify st.store in
  c.attempted <- c.attempted + fsck.Core.Store.checked;
  c.failed <- c.failed + List.length fsck.Core.Store.fsck_errors;
  rm_rf st.dir;
  let lat kind = List.filter_map (fun (k, dt) -> if k = kind then Some dt else None) tm.latency in
  let layers =
    if not cfg.traced then []
    else begin
      let n_traced = float_of_int (List.length !traced_walls) in
      let per_rep v = v /. n_traced in
      let wall = sum !traced_walls -. !traced_shadow in
      let engine_busy = Ledger.total ledger "engine.run" in
      let enum_calls = Ledger.calls ledger "enumerate.run" in
      let ingest_s = sum (List.map fst tm.ingest) and ingest_n = List.fold_left (fun a (_, n) -> a + n) 0 tm.ingest in
      [
        ("generator.generate_s", Ledger.total ledger "generator.generate");
        ("snapshot.calls", per_rep (Ledger.calls ledger "snapshot.of_trace"));
        ("snapshot.of_trace_ms_p50", Ledger.ms_quantile ledger "snapshot.of_trace" 0.5);
        ("snapshot.of_trace_ms_p90", Ledger.ms_quantile ledger "snapshot.of_trace" 0.9);
        ("enumerate.calls", per_rep enum_calls);
        ("enumerate.busy_s", per_rep (Ledger.total ledger "enumerate.run"));
        ("enumerate.call_ms_p50", Ledger.ms_quantile ledger "enumerate.run" 0.5);
        ("enumerate.call_ms_p90", Ledger.ms_quantile ledger "enumerate.run" 0.9);
        ("enumerate.steps", per_rep (Ledger.count ledger "enumerate.steps"));
        ("enumerate.arrivals", per_rep (Ledger.count ledger "enumerate.arrivals"));
        ("enumerate.stopped_early_ratio", Ledger.ratio (Ledger.count ledger "enumerate.stopped_early") enum_calls);
        ("engine.runs", per_rep (Ledger.count ledger "engine.runs"));
        ("engine.busy_s", per_rep engine_busy);
        ("engine.events", per_rep (Ledger.count ledger "engine.events"));
        ("engine.events_per_s", Ledger.ratio (Ledger.count ledger "engine.events") engine_busy);
        ("engine.setup_s", per_rep (Ledger.total ledger "engine.setup"));
        ("engine.drain_s", per_rep (Ledger.total ledger "engine.drain"));
        ("engine.finish_s", per_rep (Ledger.total ledger "engine.finish"));
        ("engine.transmissions", per_rep (Ledger.count ledger "engine.transmissions"));
        ("parallel.jobs", float_of_int jobs);
        ("faults.compile_ms_p50", Ledger.ms_quantile ledger "faults.compile" 0.5);
        ("faults.degrade_ms_p50", Ledger.ms_quantile ledger "faults.degrade" 0.5);
        ("store.snapshot_ms_p50", Ledger.ms_quantile ledger "store.snapshot" 0.5);
        ("window.trace_ms_p50", Ledger.ms_quantile ledger "window.trace" 0.5);
        ("window.trace_ms_p90", Ledger.ms_quantile ledger "window.trace" 0.9);
        ("window.size_p50", median (Ledger.samples ledger "window.size"));
        ("window.evicted", per_rep (Ledger.count ledger "window.evicted"));
        ("multipath.diversity_ms_p50", Ledger.ms_quantile ledger "multipath.diversity" 0.5);
        ("serve.unattributed_ms_p50", ms (median tm.unattributed));
        ("serve.delivery_ms_p50", ms (median (lat Delivery)));
        ("serve.delivery_ms_p90", ms (quantile (lat Delivery) 0.9));
        ("serve.paths_ms_p50", ms (median (lat Paths)));
        ("serve.paths_ms_p90", ms (quantile (lat Paths) 0.9));
        ("serve.advance_ms_p90", ms (quantile (lat Advance) 0.9));
        ("serve.ingest_events_per_s", Ledger.ratio (float_of_int ingest_n) ingest_s);
        ("trace.coverage", Ledger.ratio !traced_handled wall);
        ("trace.uncovered_ratio", 1. -. Ledger.ratio !traced_handled wall);
        ("trace.overhead_ratio", Ledger.ratio (median !traced_walls) (median !walls));
        ("kernel.snapshot_of_trace_ns", Kernels.snapshot_of_trace ~tiny:cfg.tiny);
        ("kernel.enumerate_k100_ns", Kernels.enumerate_k100 ~tiny:cfg.tiny);
        ("kernel.engine_epidemic50_ns", Kernels.engine_epidemic50 ~tiny:cfg.tiny);
      ]
    end
  in
  {
    setup_s = setup_time phase (first_setup :: setup_samples ());
    work_per_s = rate phase (List.rev_map (fun w -> (float_of_int lines, w)) !walls);
    speed = median (Array.to_list phase.speed);
    run_jobs = jobs;
    reps = phase.reps;
    checks = c;
    digest = combine !first;
    layers;
  }
