module Trace = Psn_trace.Trace
module Contact = Psn_trace.Contact
module T = Psn_telemetry.Telemetry

type record = { message : Message.t; delivered : float option; copies : int; attempts : int }

type outcome = { algorithm : string; records : record array; copies : int; attempts : int }

(* The event schedule is stored as a structure of arrays — a flat
   unboxed float array of times and a flat int array of packed event
   codes — so building and draining it allocates nothing per event (no
   tuple, no boxed float, no variant).

   A code packs (rank, a, b) into one 63-bit int:

     rank (2 bits) | a (28 bits) | b (28 bits)

   with rank 0 = contact end, 1 = contact start, 2 = message creation
   (a unused, b = message id). Events at equal times order ends, then
   starts, then creations — a message created the instant a contact
   opens may use it — and ties within a kind break on endpoint ids /
   message id, exactly the lexicographic order of the packed code, so
   comparing (time, code) pairs reproduces the documented drain order
   and the sort below is fully deterministic. *)
let id_bits = 28

let id_mask = (1 lsl id_bits) - 1

let code_end a b = (a lsl id_bits) lor b

let code_start a b = (1 lsl (2 * id_bits)) lor (a lsl id_bits) lor b

let code_create id = (2 lsl (2 * id_bits)) lor id

(* Reusable per-run buffers. A run needs O(n²) adjacency state and
   O(n + messages) bookkeeping; allocating it anew for every seed
   dominated short runs, so a [scratch] owns all of it and consecutive
   runs (the per-domain task streams of [Runner]) reuse it. Reuse is
   invisible by construction:

   - the message-indexed arrays, the holder bitset and the held-list
     lengths are reset on every acquisition;
   - the node-indexed adjacency state ([s_adj], [s_peer_pos],
     [s_n_peers]) is self-cleaning — every contact start the drain
     replays is matched by its end, which restores the all-empty
     state — and [s_clean] records whether the previous drain ran to
     completion; an exception mid-drain leaves [s_clean = false] and
     the next acquisition rebuilds the invariant explicitly;
   - event times/codes beyond the current run's count are never read
     (the sort and the drain touch exactly [0, n_events)).

   A scratch must only ever be used by one domain at a time; [Runner]
   creates one per worker through [Parallel.map_env]. *)
type scratch = {
  mutable s_nodes : int;  (* rows allocated in the node-indexed buffers *)
  mutable s_adj : int array array;
  mutable s_peers : int array array;
  mutable s_n_peers : int array;
  mutable s_peer_pos : int array array;
  mutable s_held : int array array;
  mutable s_held_len : int array;
  mutable s_msgs : int;  (* capacity of the message-indexed buffers *)
  mutable s_message_of : Message.t option array;
  mutable s_stride : int;  (* holder-bitset bytes per message *)
  mutable s_holders : Bytes.t;
  mutable s_delivered : float array;  (* nan = not delivered *)
  mutable s_copies_of : int array;
  mutable s_attempts_of : int array;
  mutable s_ev_cap : int;
  mutable s_ev_time : float array;
  mutable s_ev_code : int array;
  mutable s_clean : bool;  (* adjacency state is all-empty *)
}

let scratch () =
  {
    s_nodes = 0;
    s_adj = [||];
    s_peers = [||];
    s_n_peers = [||];
    s_peer_pos = [||];
    s_held = [||];
    s_held_len = [||];
    s_msgs = 0;
    s_message_of = [||];
    s_stride = 0;
    s_holders = Bytes.empty;
    s_delivered = [||];
    s_copies_of = [||];
    s_attempts_of = [||];
    s_ev_cap = 0;
    s_ev_time = [||];
    s_ev_code = [||];
    s_clean = true;
  }

(* Windowed-reuse audit (the serve layer reuses one scratch across
   runs whose populations, message counts and event volumes all vary
   as the window slides; each re-entry invariant below is what makes
   that bit-identical to fresh scratches, and each is pinned by the
   scratch-reuse regression tests):

   - population GROWS: the node-indexed buffers are reallocated at the
     new size (fresh all-empty adjacency, [s_clean] true);
   - population SHRINKS: buffers keep high-water size, but every loop
     indexes through ids < n only, the dirty rebuild and the held-list
     reset sweep the full allocated range [0, s_nodes), and the
     self-cleaning invariant covers whatever rows a bigger previous
     run touched — stale rows beyond n are all-empty, not read;
   - a node id EVICTED from the serve window and later REINSERTED is
     just an id with no contacts in some run and contacts in a later
     one: node state is positional and rebuilt per run (held lengths
     reset on acquisition, adjacency self-cleaning), so no residue
     crosses runs;
   - message-count changes: [ensure_msgs] resets exactly [0, n_msgs)
     of every message-indexed array and zeroes exactly the first
     [n_msgs * stride] holder-bitset bytes — and [stride] is
     recomputed from the current population, so a population change
     re-strides the bitset consistently;
   - event-volume changes: the sort and the drain touch exactly
     [0, n_events); heapsort's swap sequence is a pure function of the
     key sequence, so garbage beyond the current run's count can never
     influence the order. *)
let ensure_nodes s n =
  if n > s.s_nodes then begin
    s.s_adj <- Array.init n (fun _ -> Array.make n 0);
    s.s_peer_pos <- Array.init n (fun _ -> Array.make n (-1));
    s.s_peers <- Array.make n [||];
    s.s_n_peers <- Array.make n 0;
    s.s_held <- Array.make n [||];
    s.s_held_len <- Array.make n 0;
    s.s_nodes <- n;
    s.s_clean <- true
  end
  else if not s.s_clean then begin
    (* The previous run raised mid-drain: rebuild the all-empty
       adjacency invariant a completed drain restores by itself. *)
    for a = 0 to s.s_nodes - 1 do
      Array.fill s.s_adj.(a) 0 (Array.length s.s_adj.(a)) 0;
      Array.fill s.s_peer_pos.(a) 0 (Array.length s.s_peer_pos.(a)) (-1)
    done;
    Array.fill s.s_n_peers 0 s.s_nodes 0;
    s.s_clean <- true
  end;
  (* Held lists never self-clean (copies persist to the end of a run),
     so their lengths are reset on every acquisition. *)
  Array.fill s.s_held_len 0 s.s_nodes 0

let ensure_msgs s n_msgs ~stride =
  if n_msgs > s.s_msgs then begin
    s.s_message_of <- Array.make n_msgs None;
    s.s_delivered <- Array.make n_msgs Float.nan;
    s.s_copies_of <- Array.make n_msgs 0;
    s.s_attempts_of <- Array.make n_msgs 0;
    s.s_msgs <- n_msgs
  end
  else begin
    Array.fill s.s_message_of 0 n_msgs None;
    Array.fill s.s_delivered 0 n_msgs Float.nan;
    Array.fill s.s_copies_of 0 n_msgs 0;
    Array.fill s.s_attempts_of 0 n_msgs 0
  end;
  s.s_stride <- stride;
  let bytes = n_msgs * stride in
  if bytes > Bytes.length s.s_holders then s.s_holders <- Bytes.make bytes '\000'
  else Bytes.fill s.s_holders 0 bytes '\000'

let ensure_events s cap =
  if cap > s.s_ev_cap then begin
    let cap = Int.max cap (2 * s.s_ev_cap) in
    s.s_ev_time <- Array.make cap 0.;
    s.s_ev_code <- Array.make cap 0;
    s.s_ev_cap <- cap
  end

(* In-place heapsort of the first [len] events, co-sorting the time
   and code arrays on the (time, code) key. Heapsort allocates nothing
   and its swap sequence is a pure function of the key sequence (equal
   keys are indistinguishable), so the sorted order is deterministic
   whatever buffer contents a previous run left past [len]. The three
   local functions close over the buffers: three closures per sort,
   none per comparison or swap. *)
let[@psn.hot] sort_events time code len =
  let[@lint.allow "hot-path-alloc"] less i j =
    let c = Float.compare time.(i) time.(j) in
    if c <> 0 then c < 0 else code.(i) < code.(j)
  in
  let[@lint.allow "hot-path-alloc"] swap i j =
    let t = time.(i) in
    time.(i) <- time.(j);
    time.(j) <- t;
    let k = code.(i) in
    code.(i) <- code.(j);
    code.(j) <- k
  in
  let[@lint.allow "hot-path-alloc"] rec sift_down root size =
    let l = (2 * root) + 1 in
    if l < size then begin
      let largest = if less root l then l else root in
      let r = l + 1 in
      let largest = if r < size && less largest r then r else largest in
      if largest <> root then begin
        swap root largest;
        sift_down largest size
      end
    end
  in
  for root = (len / 2) - 1 downto 0 do
    sift_down root len
  done;
  for last = len - 1 downto 1 do
    swap 0 last;
    sift_down 0 last
  done

(* The schedule is written into the scratch buffers and sorted in
   place: no cons cells, no per-event allocation — this is rebuilt
   once per run and was a measurable share of short runs. *)
let[@psn.hot] build_events s trace messages n_msgs =
  let n_events = (2 * Trace.n_contacts trace) + n_msgs in
  (* The hot contract here is no allocation per *event*; the five
     suppressed sites below are once per run: the scratch grow path,
     one cursor cell, the [push] closure and the two walker closures. *)
  (ensure_events s n_events) [@lint.allow "hot-path-alloc"];
  let time = s.s_ev_time and code = s.s_ev_code in
  let idx = (ref 0) [@lint.allow "hot-path-alloc"] in
  let[@lint.allow "hot-path-alloc"] push t c =
    time.(!idx) <- t;
    code.(!idx) <- c;
    incr idx
  in
  Trace.iter_contacts trace
    ((fun (c : Contact.t) ->
       push c.Contact.t_start (code_start c.Contact.a c.Contact.b);
       push c.Contact.t_end (code_end c.Contact.a c.Contact.b)) [@lint.allow "hot-path-alloc"]);
  List.iter
    ((fun (m : Message.t) -> push m.Message.t_create (code_create m.Message.id))
    [@lint.allow "hot-path-alloc"])
    messages;
  sort_events time code n_events;
  n_events

let run ?ttl ?faults ?scratch:reuse ?(telemetry = T.Sink.null) ~trace ~messages algorithm =
  T.with_span telemetry "engine.run"
    ~args:[ ("algorithm", T.Str algorithm.Algorithm.name) ]
  @@ fun () ->
  T.begin_span telemetry "engine.setup";
  (match ttl with
  | Some t when not (t > 0.) ->
    invalid_arg (Printf.sprintf "Engine.run: ttl must be positive (got %g)" t)
  | Some _ | None -> ());
  let expired (m : Message.t) time =
    match ttl with None -> false | Some t -> time > m.Message.t_create +. t
  in
  let n = Trace.n_nodes trace in
  let horizon = Trace.horizon trace in
  List.iter
    (fun (m : Message.t) ->
      let check_endpoint what id =
        if id >= n then
          invalid_arg
            (Printf.sprintf
               "Engine.run: message %d %s n%d outside population of %d node%s" m.Message.id what
               id n
               (if n = 1 then "" else "s"))
      in
      check_endpoint "source" m.Message.src;
      check_endpoint "destination" m.Message.dst;
      if m.Message.t_create < 0. || m.Message.t_create >= horizon then
        invalid_arg "Engine.run: message created outside trace window")
    messages;
  (* The degraded contact set is what the run replays: downtime and
     jitter faults never touch the event loop itself, so the schedule
     stays a pure function of (trace, faults) — order-independent. *)
  let trace = match faults with None -> trace | Some plan -> Faults.degrade plan trace in
  let n_msgs = List.length messages in
  if n > id_mask || n_msgs > id_mask then
    invalid_arg "Engine.run: population or workload exceeds the 2^28 packed-event limit";
  let s = match reuse with Some s -> s | None -> scratch () in
  ensure_nodes s n;
  ensure_msgs s n_msgs ~stride:((n + 7) / 8);
  let message_of = s.s_message_of in
  List.iter
    (fun (m : Message.t) ->
      if m.Message.id < 0 || m.Message.id >= n_msgs then
        invalid_arg "Engine.run: message ids must be dense in [0, count)";
      if Option.is_some message_of.(m.Message.id) then invalid_arg "Engine.run: duplicate message id";
      message_of.(m.Message.id) <- Some m)
    messages;
  (* Active contacts as adjacency counts (duplicate contact records are
     tolerated) plus a dense peer set per node with positional
     swap-removal, so contact start/end and the cascade iteration are
     all O(1)/O(deg) instead of O(deg) list scans per event. *)
  let adj = s.s_adj in
  let peers = s.s_peers in
  let n_peers = s.s_n_peers in
  let peer_pos = s.s_peer_pos in
  let add_peer a b =
    if adj.(a).(b) = 0 then begin
      if n_peers.(a) = Array.length peers.(a) then begin
        let bigger = Array.make (Int.max 4 (2 * n_peers.(a))) 0 in
        Array.blit peers.(a) 0 bigger 0 n_peers.(a);
        peers.(a) <- bigger
      end;
      peers.(a).(n_peers.(a)) <- b;
      peer_pos.(a).(b) <- n_peers.(a);
      n_peers.(a) <- n_peers.(a) + 1
    end;
    adj.(a).(b) <- adj.(a).(b) + 1
  in
  let remove_peer a b =
    if adj.(a).(b) > 0 then begin
      adj.(a).(b) <- adj.(a).(b) - 1;
      if adj.(a).(b) = 0 then begin
        let p = peer_pos.(a).(b) in
        let last = n_peers.(a) - 1 in
        let moved = peers.(a).(last) in
        peers.(a).(p) <- moved;
        peer_pos.(a).(moved) <- p;
        peer_pos.(a).(b) <- -1;
        n_peers.(a) <- last
      end
    end
  in
  (* One flat bitset row of [stride] bytes per message: bit [node] of
     row [msg] is set when the node holds a copy. *)
  let holders = s.s_holders in
  let stride = s.s_stride in
  let has_copy msg node =
    Char.code (Bytes.get holders ((msg * stride) + (node lsr 3))) land (1 lsl (node land 7)) <> 0
  in
  let set_copy msg node =
    let byte = (msg * stride) + (node lsr 3) in
    Bytes.set holders byte (Char.chr (Char.code (Bytes.get holders byte) lor (1 lsl (node land 7))))
  in
  (* Held messages per node: append-only dense index (copies are never
     dropped — infinite buffers). *)
  let held = s.s_held in
  let held_len = s.s_held_len in
  let push_held node id =
    if held_len.(node) = Array.length held.(node) then begin
      let bigger = Array.make (Int.max 4 (2 * held_len.(node))) 0 in
      Array.blit held.(node) 0 bigger 0 held_len.(node);
      held.(node) <- bigger
    end;
    held.(node).(held_len.(node)) <- id;
    held_len.(node) <- held_len.(node) + 1
  in
  (* First-delivery time per message, nan while undelivered — a flat
     float array, no option boxing on the hot path. *)
  let delivered = s.s_delivered in
  let is_delivered id = not (Float.is_nan delivered.(id)) in
  (* Transmissions per message (relay forwards and the final delivery
     transmission alike), plus the running total. [attempts] counts
     every transfer the run tried — under fault injection some attempts
     are lost and never become copies, and the gap is the overhead the
     resilience experiments measure. *)
  let copies_of = s.s_copies_of in
  let copies = ref 0 in
  let attempts_of = s.s_attempts_of in
  let attempts = ref 0 in
  let transmit id =
    copies_of.(id) <- copies_of.(id) + 1;
    incr copies
  in
  let attempt id =
    attempts_of.(id) <- attempts_of.(id) + 1;
    incr attempts
  in
  let lost (m : Message.t) ~holder ~peer time =
    match faults with
    | None -> false
    | Some plan -> Faults.transfer_fails plan ~msg:m.Message.id ~holder ~peer ~time
  in
  (* Cascading receive: instant transfers mean a fresh copy immediately
     competes for every active contact of its new holder. *)
  let rec receive (m : Message.t) node time =
    let id = m.Message.id in
    if (not (is_delivered id)) && not (has_copy id node) then begin
      set_copy id node;
      if node = m.Message.dst then delivered.(id) <- time
      else begin
        push_held node id;
        let ps = peers.(node) in
        let len = n_peers.(node) in
        let i = ref 0 in
        while !i < len && not (is_delivered id) do
          offer m ~holder:node ~peer:ps.(!i) time;
          incr i
        done
      end
    end
  (* One copy, one contact: deliver on meeting the destination (minimal
     progress), otherwise ask the algorithm. Every accepted transfer —
     including the final hop to the destination — is one transmission. *)
  and offer (m : Message.t) ~holder ~peer time =
    let id = m.Message.id in
    if (not (is_delivered id)) && not (expired m time) then
      if peer = m.Message.dst then begin
        attempt id;
        if not (lost m ~holder ~peer time) then begin
          transmit id;
          receive m peer time
        end
      end
      else if
        (not (has_copy id peer))
        && algorithm.Algorithm.should_forward { Algorithm.time; holder; peer; message = m }
      then begin
        attempt id;
        (* A lost transfer leaves no copy at the peer, so [on_forward]
           does not fire: replication state (e.g. spray tokens) refers
           to copies that exist, not copies that were tried. *)
        if not (lost m ~holder ~peer time) then begin
          algorithm.Algorithm.on_forward { Algorithm.time; holder; peer; message = m };
          transmit id;
          receive m peer time
        end
      end
  in
  let exchange a b time =
    (* Offer everything [a] holds across the new contact with [b]. The
       length is snapshotted: copies received during the exchange are
       appended past it and offer themselves through their own cascade. *)
    let snapshot = held.(a) in
    let len = held_len.(a) in
    for i = 0 to len - 1 do
      match message_of.(snapshot.(i)) with
      | None -> ()
      | Some m -> offer m ~holder:a ~peer:b time
    done
  in
  let n_events = build_events s trace messages n_msgs in
  T.end_span telemetry;
  T.count telemetry "engine.runs" 1;
  T.count telemetry "engine.events" n_events;
  (* An algorithm callback may raise out of the drain, leaving the
     adjacency state mid-flight; the flag makes the next acquisition
     rebuild it instead of trusting the self-cleaning invariant. *)
  s.s_clean <- false;
  T.with_span telemetry "engine.drain" (fun () ->
      let ev_time = s.s_ev_time and ev_code = s.s_ev_code in
      for i = 0 to n_events - 1 do
        let time = ev_time.(i) in
        let c = ev_code.(i) in
        let rank = c lsr (2 * id_bits) in
        if rank = 0 then begin
          let a = (c lsr id_bits) land id_mask and b = c land id_mask in
          remove_peer a b;
          remove_peer b a
        end
        else if rank = 1 then begin
          let a = (c lsr id_bits) land id_mask and b = c land id_mask in
          (* Chaos hook: lets a plan kill or fail a run mid-drain, which
             is exactly the state the scratch's dirty-rebuild path
             ([s_clean]) exists to recover from. Keyless on purpose —
             no per-event allocation on the disabled path; use hit
             rules ([@N]) to pick a specific contact. *)
          Psn_robust.Failpoint.trigger "engine.contact";
          algorithm.Algorithm.observe_contact ~time ~a ~b;
          add_peer a b;
          add_peer b a;
          exchange a b time;
          exchange b a time
        end
        else begin
          match message_of.(c land id_mask) with
          | Some m ->
            algorithm.Algorithm.on_create m;
            receive m m.Message.src time
          | None -> assert false (* ids validated dense above *)
        end
      done);
  s.s_clean <- true;
  T.count telemetry "engine.transmissions" !copies;
  T.count telemetry "engine.attempts" !attempts;
  T.count telemetry "engine.transfers_lost" (!attempts - !copies);
  T.with_span telemetry "engine.finish" (fun () ->
      let records =
        List.map
          (fun (m : Message.t) ->
            let id = m.Message.id in
            {
              message = m;
              delivered = (if Float.is_nan delivered.(id) then None else Some delivered.(id));
              copies = copies_of.(id);
              attempts = attempts_of.(id);
            })
          messages
        |> Array.of_list
      in
      { algorithm = algorithm.Algorithm.name; records; copies = !copies; attempts = !attempts })

let delay record =
  Option.map (fun t -> t -. record.message.Message.t_create) record.delivered
