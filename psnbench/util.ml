(* Shared plumbing for the workloads: clock, statistics, seeded inputs,
   output digests, check accounting and the scratch directory. *)

let now = Core.Clock.now_s

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Linear-interpolation quantile (Python's "inclusive" method), so the
   benchmark's percentiles read the same as the ones the README quotes. *)
let quantile samples q =
  match samples with
  | [] -> 0.
  | _ ->
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= Array.length a then a.(i) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median samples = quantile samples 0.5
let sum = List.fold_left ( +. ) 0.
let ms s = s *. 1000.

(* ---- seeded inputs ---------------------------------------------------- *)

(* Every random input of a run derives from --seed and a tag naming what
   it feeds, so workloads never share a random stream. *)
let sub_seed seed tag = Core.Fnv.of_string (Printf.sprintf "psnbench/%d/%s" seed tag)

let permutation ~seed n =
  let rng = Core.Rng.create ~seed () in
  let p = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Core.Rng.int rng (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

(* An isomorphic copy of the trace with node [i] renamed [perm.(i)].
   Generator seeds change a trace's structure, and with it the cost of
   every workload by more than the benchmark's bounds (the same 24-run
   sweep took 1.1 to 1.6 s across ten generator seeds of infocom06_am);
   a relabelled copy keeps the work while every node id the program
   sees changes with the seed. *)
let relabel perm trace =
  let n = Core.Trace.n_nodes trace in
  let kinds = Array.make n Core.Node.Mobile in
  Array.iteri (fun i k -> kinds.(perm.(i)) <- k) (Core.Trace.kinds trace);
  let contacts =
    Array.to_list (Core.Trace.contacts trace)
    |> List.map (fun (c : Core.Contact.t) ->
           Core.Contact.make ~a:perm.(c.Core.Contact.a) ~b:perm.(c.Core.Contact.b)
             ~t_start:c.Core.Contact.t_start ~t_end:c.Core.Contact.t_end)
  in
  Core.Trace.create ~n_nodes:n ~horizon:(Core.Trace.horizon trace) ~kinds contacts

(* The dataset's own trace (its published generator seed), relabelled
   by the run's seed. Generation is timed as the Generator layer. *)
let dataset_trace ?(sink = Core.Telemetry.Sink.null) ~seed (d : Core.Dataset.t) =
  let trace =
    Core.Telemetry.with_span sink "generator.generate" (fun () ->
        Core.Dataset.generate ~seed:d.Core.Dataset.seed d)
  in
  let perm =
    permutation ~seed:(sub_seed seed ("relabel/" ^ d.Core.Dataset.name)) (Core.Trace.n_nodes trace)
  in
  (relabel perm trace, perm)

(* ---- outputs ---------------------------------------------------------- *)

let digest ?(init = 0L) s = Core.Fnv.of_string ~init s
let hex = Core.Fnv.to_hex

type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

(* One checked operation: fails when the two digests differ. *)
let check c ~expected actual =
  c.attempted <- c.attempted + 1;
  if not (Int64.equal expected actual) then c.failed <- c.failed + 1

(* Digests of the default seed's outputs: reference.txt, compiled in. *)
let reference_seed = 1

let reference workload =
  String.split_on_char '\n' Embedded.reference
  |> List.find_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ w; d ] when String.equal w workload -> Some d
         | _ -> None)

(* ---- process ---------------------------------------------------------- *)

(* VmHWM: the resident-set high-water mark of this process. *)
let peak_rss_mb () =
  let from_proc () =
    In_channel.with_open_text "/proc/self/status" In_channel.input_lines
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] -> (
             match String.split_on_char ' ' (String.trim v) with
             | kb :: _ -> Option.map (fun k -> float_of_int k /. 1024.) (int_of_string_opt kb)
             | [] -> None)
           | _ -> None)
  in
  match from_proc () with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* Run [f] until its reps have taken [seconds] and at least [min_reps]
   reps ran; [f] gets the rep index. Before each rep and once at the end,
   [between] gets the share of [seconds] spent so far (at most 1); its
   own time is not counted. Returns the number of reps. Every rep starts
   from a compacted heap, so no rep inherits another's garbage. *)
let repeat ?(between = ignore) ~seconds ~min_reps f =
  let spent = ref 0. in
  let rec go i =
    between (Float.min 1. (!spent /. seconds));
    if i >= min_reps && !spent >= seconds then i
    else begin
      Gc.compact ();
      let (), dt = time (fun () -> f i) in
      spent := !spent +. dt;
      go (i + 1)
    end
  in
  go 0

(* ---- machine speed ---------------------------------------------------- *)

(* The 2-vCPU virtual machine the bounds were set on shares its cores
   with other tenants, and its speed drifts by up to 20% over seconds to
   minutes: the same seed's sim-fig9 rate read 35 to 47 runs/s in runs
   minutes apart, and ten runs spread by 0.23 of their median. So an
   untraced run times a fixed calibration load before each rep and after
   the last, and reports its timings at reference speed. The load uses
   no library code, so no change to the program moves it. Per domain,
   it inserts into small ordered maps that die young: allocation and
   minor collections, which stop every domain as the program's do, but
   no major-heap work, so the program's heap does not move it either. *)
module Int_map = Map.Make (Int)

(* Seconds one calibration unit takes at reference speed: close to what
   it took on that machine, so reported rates stay near raw ones. *)
let unit_reference_s = 0.035

let calibration_unit () =
  let acc = ref 0 in
  for round = 0 to 511 do
    let m = ref Int_map.empty in
    for i = 0 to 511 do
      m := Int_map.add (((i * 7919) + round) land 0xFFFF) i !m
    done;
    acc := !acc + Int_map.cardinal !m
  done;
  !acc

(* Seconds per unit, with [units] calibration units back to back on
   each of [jobs] domains. *)
let calibrate ~jobs ~units =
  let load () =
    let acc = ref 0 in
    for _ = 1 to units do
      acc := !acc + calibration_unit ()
    done;
    !acc
  in
  let (), dt =
    time (fun () ->
        let others = List.init (jobs - 1) (fun _ -> Domain.spawn load) in
        let mine = load () in
        ignore (List.fold_left (fun acc d -> acc + Domain.join d) mine others))
  in
  dt /. float_of_int units

(* ---- one run ---------------------------------------------------------- *)

type config = {
  seed : int;
  seconds : float;
  traced : bool;
  tiny : bool;  (** Test size: every workload shrunk to a fraction of a second. *)
  corrupt : bool;  (** Test hook: damage one output so its check must fail. *)
  jobs : int;  (** Domains for fan-out: the machine's core count. *)
  work : string;  (** Scratch directory for files the run writes. *)
}

type result = {
  setup_s : float;  (** Over the set-ups, at reference speed (see {!setup_time}). *)
  work_per_s : float;  (** Median over untraced reps, at reference speed (see {!rate}). *)
  speed : float;  (** Median of the phase's [speed]: above 1 is slower than reference. *)
  run_jobs : int;  (** Domains the timed body fans out over. *)
  reps : int;
  checks : checks;
  digest : int64;  (** Combined digest of the first rep's outputs. *)
  layers : (string * float) list;  (** Traced runs only. *)
}

(* One set-up from a compacted heap: its value and its time. *)
let setup_once f =
  Gc.compact ();
  time f

(* Set-up time samples. The first set-up builds what the reps use. On
   the 2-vCPU virtual machine the bounds were set on, one thread's speed
   switched between two phases about 1.7x apart, each lasting from a
   fraction of a second to a few seconds, and set-ups timed back to back
   shared a phase: the medians of two runs of unchanged code sat 60%
   apart. An untraced run therefore times [n] more set-ups spread evenly
   over its timed phase, as [timed_phase]'s [between], where [again i]
   builds and drops set-up [i]. Returns [between] and the samples so
   far, oldest first. *)
let spread_setups ~n again =
  let samples = ref [] and done_ = ref 0 in
  let between share =
    let target = Int.min n (int_of_float (share *. float_of_int (n + 1))) in
    while !done_ < target do
      incr done_;
      let (), dt = setup_once (fun () -> again !done_) in
      samples := dt :: !samples
    done
  in
  (between, fun () -> List.rev !samples)


(* Check the first rep's combined digest against the reference kept for
   the default seed: a mismatch, or no reference for the workload, fails
   every operation of that rep. *)
let check_reference cfg c ~workload ~ops combined =
  if cfg.seed = reference_seed && not cfg.tiny then begin
    c.attempted <- c.attempted + ops;
    match reference workload with
    | Some want when String.equal want (hex combined) -> ()
    | Some _ | None -> c.failed <- c.failed + ops
  end

let combine digests = Array.fold_left (fun acc d -> digest ~init:acc (hex d)) 0L digests

(* Per-item comparison of a rep's digests against the first rep's. *)
let check_all c ~expected actual = Array.iteri (fun i d -> check c ~expected:expected.(i) d) actual

(* The timed phase. Untraced, reps run for [seconds], with [between]
   and then a calibration between them, lasting about a tenth of the rep
   before it (3 to 12 units): a short one reads a slow reps' machine
   no better than noise. Traced, the first third runs untraced (the
   baseline for the overhead ratio) and the rest traced; a traced run
   reports no end-to-end metric, so neither [between] nor a calibration
   runs and every rep counts at speed 1. [one ~traced i] runs rep [i].
   [speed.(i)] is untraced rep [i]'s seconds per calibration unit (the
   mean of the calibrations before and after it) over
   [unit_reference_s]. *)
type phase = { reps : int; speed : float array }

let timed_phase cfg ~between one =
  if cfg.traced then begin
    let a = repeat ~seconds:(cfg.seconds /. 3.) ~min_reps:1 (fun i -> one ~traced:false i) in
    let b = repeat ~seconds:(cfg.seconds *. 2. /. 3.) ~min_reps:2 (fun i -> one ~traced:true (a + i)) in
    { reps = a + b; speed = Array.make a 1. }
  end
  else begin
    (* The first domain spawned is slow to start: not a sample. *)
    ignore (calibrate ~jobs:cfg.jobs ~units:1);
    let cals = ref [] and last = ref 0. in
    let between share =
      between share;
      let rep_s = (share -. !last) *. cfg.seconds in
      last := share;
      let units = Int.max 3 (Int.min 12 (int_of_float (rep_s *. 0.1 /. unit_reference_s))) in
      cals := calibrate ~jobs:cfg.jobs ~units :: !cals
    in
    let reps = repeat ~between ~seconds:cfg.seconds ~min_reps:3 (fun i -> one ~traced:false i) in
    let c = Array.of_list (List.rev !cals) in
    { reps; speed = Array.init reps (fun i -> (c.(i) +. c.(i + 1)) /. 2. /. unit_reference_s) }
  end

(* A rate at reference speed from the untraced reps' (work, wall), oldest
   first: the median of work over wall, each scaled by its rep's speed. *)
let rate phase samples = median (List.mapi (fun i (work, wall) -> work /. wall *. phase.speed.(i)) samples)

(* A run's set-up time from its samples, oldest first, at reference
   speed. The samples are dealt in turn into three rounds, so that each
   round spans the whole run and sees both phases about as often as the
   run did; the rounds' median mean set-up time is divided by the run's
   median speed. *)
let setup_time phase samples =
  let rounds = Int.min 3 (List.length samples) in
  let raw =
    List.init rounds (fun r ->
        let mine = List.filteri (fun i _ -> i mod rounds = r) samples in
        sum mine /. float_of_int (List.length mine))
    |> median
  in
  raw /. median (Array.to_list phase.speed)
