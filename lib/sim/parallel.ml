module T = Psn_telemetry.Telemetry
module Failpoint = Psn_robust.Failpoint

let default_jobs () = Domain.recommended_domain_count ()

(* Workers claim whole index *ranges* rather than single tasks: the
   shared atomic advances by [chunk] per grab, so contention and the
   per-task dispatch cost both drop by a factor of [chunk] while load
   stays balanced as long as each worker gets several chunks. The
   default aims for ~4 chunks per worker, capped so a grab never walks
   away with more than 64 tasks of a long tail. *)
let default_chunk ~jobs n = Int.max 1 (Int.min 64 (n / (jobs * 4)))

(* Deterministic backoff between retry attempts: a bounded spin of
   [Domain.cpu_relax], doubling per attempt. No wall clock (the lint
   contract forbids it in lib/) and no scheduling dependence — the
   delay is a pure function of the attempt index. *)
let backoff attempt =
  for _ = 1 to 64 * (1 lsl Int.min attempt 6) do
    Domain.cpu_relax ()
  done

(* Chunked work-stealing by atomic counter. Each slot of [cells] is
   written by exactly one domain, and [Domain.join] publishes those
   writes to the caller, so no further synchronisation is needed.

   Telemetry: worker [k] records into child sink [k]. Children are
   forked for the *requested* [jobs] — also on the [jobs = 1] and
   [n < jobs] paths — so the Chrome-trace track layout is a function
   of [jobs] alone, never of how many tasks there happened to be.

   [env] runs once per worker, on that worker's domain, before it
   claims work: whatever it allocates (scratch buffers, arenas) is
   owned by exactly one domain for the whole section, so tasks may
   mutate it freely without coupling the runs.

   Every task runs inside [Failpoint.with_attempt]; an exception that
   [Failpoint.is_transient] judges retryable is retried up to
   [retries] times (with deterministic backoff) before its cell
   becomes [Error]. Because one task's attempts run consecutively on
   one domain and verdicts are pure functions of (site, key, attempt),
   the final cell array is bit-identical for every [jobs] × [chunk]
   combination. *)
let map_result ?jobs ?chunk ?(telemetry = T.Sink.null) ?(retries = 0) ~env f tasks =
  let n = Array.length tasks in
  let jobs =
    match jobs with
    | Some j when j < 1 -> invalid_arg "Parallel.map: jobs must be >= 1"
    | Some j -> j
    | None -> default_jobs ()
  in
  let chunk =
    match chunk with
    | Some c when c < 1 -> invalid_arg "Parallel.map: chunk must be >= 1"
    | Some c -> c
    | None -> default_chunk ~jobs n
  in
  if retries < 0 then invalid_arg "Parallel.map_result: retries must be >= 0";
  let sinks = T.fork telemetry jobs in
  let cells : ('b, exn) result option array = Array.make n None in
  let next = Atomic.make 0 in
  let worker k () =
    let sink = sinks.(k) in
    let e = env () in
    let run_task i =
      let rec attempt_loop a =
        match Failpoint.with_attempt a (fun () -> f e sink tasks.(i)) with
        | v ->
          if a > 0 then T.count sink "parallel.recovered" 1;
          Ok v
        | exception ex ->
          if a < retries && Failpoint.is_transient ex then begin
            T.count sink "parallel.retries" 1;
            Psn_robust.Flight.note "parallel.retry"
              [ ("task", string_of_int i); ("attempt", string_of_int (a + 1)) ];
            backoff a;
            attempt_loop (a + 1)
          end
          else begin
            T.count sink "parallel.failures" 1;
            Error ex
          end
      in
      cells.(i) <- Some (attempt_loop 0)
    in
    let rec loop () =
      let start = Atomic.fetch_and_add next chunk in
      if start < n then begin
        let stop = Int.min n (start + chunk) in
        for i = start to stop - 1 do
          run_task i
        done;
        loop ()
      end
    in
    loop ()
  in
  (* Never spawn more domains than there are chunks to claim: the
     calling domain is worker 0 and extra domains would find the range
     exhausted. [jobs = 1] (or a single chunk) therefore runs entirely
     on the calling domain, through the same claim loop and the same
     child-sink recording as the parallel path. *)
  let n_chunks = (n + chunk - 1) / chunk in
  let workers = Int.max 1 (Int.min jobs n_chunks) in
  let domains = List.init (workers - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  List.iter Domain.join domains;
  T.join telemetry sinks;
  Array.map (function Some r -> r | None -> assert false) cells

(* Failure order is deterministic whatever the claim schedule was: the
   lowest failing task index wins. *)
let join_results cells =
  Array.iter (function Error e -> raise e | Ok _ -> ()) cells;
  Array.map (function Ok v -> v | Error _ -> assert false) cells

let map_env ?jobs ?chunk ?telemetry ~env f tasks =
  join_results (map_result ?jobs ?chunk ?telemetry ~env f tasks)

let map_traced ?jobs ?chunk ?telemetry f tasks =
  map_env ?jobs ?chunk ?telemetry ~env:(fun () -> ()) (fun () sink task -> f sink task) tasks
