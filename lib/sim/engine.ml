module Trace = Psn_trace.Trace
module Contact = Psn_trace.Contact
module Node = Psn_trace.Node
module T = Psn_telemetry.Telemetry

type record = { message : Message.t; delivered : float option; copies : int; attempts : int }

type outcome = { algorithm : string; records : record array; copies : int; attempts : int }

(* The contact schedule is stored as a structure of arrays — a flat
   unboxed float array of times and a flat int array of packed event
   codes — so building and draining it allocates nothing per event (no
   tuple, no boxed float, no variant).

   A code packs (rank, a, b) into one 63-bit int:

     rank (2 bits) | a (28 bits) | b (28 bits)

   with rank 0 = contact end, 1 = contact start. Message creations
   (rank 2) live in a second stream of (time, message id) pairs, sorted
   per run and merged into the contact stream during the drain. Events
   at equal times order ends, then starts, then creations — a message
   created the instant a contact opens may use it — and ties within a
   kind break on endpoint ids / message id, exactly the lexicographic
   order of the packed code, so comparing (time, code) pairs reproduces
   the documented drain order and both sorts are fully deterministic. *)
let id_bits = Node.id_bits

(* [Node.id_bound] is 2^id_bits - 1: all ones across one id field. *)
let id_mask = Node.id_bound

let code_end a b = (a lsl id_bits) lor b

let code_start a b = (1 lsl (2 * id_bits)) lor (a lsl id_bits) lor b

(* Everything a run needs that depends on neither the workload nor the
   algorithm: the degraded trace (the original's population and
   horizon), the plan, consulted only for its loss channel, and the
   contact events sorted on (time, code). Built once by [prepare] and
   never written afterwards, so any number of runs — on one domain or
   many — may share it. *)
type schedule = {
  trace : Trace.t;
  faults : Faults.plan option;
  ev_time : float array;
  ev_code : int array;
}

(* Reusable per-run buffers. A run needs O(n + messages) bookkeeping;
   allocating it anew for every seed dominated short runs, so a
   [scratch] owns all of it and consecutive runs (the per-domain task
   streams of [Runner]) reuse it. Reuse is invisible by one rule: every
   node- or message-indexed length (peer and held-list lengths, the
   message-indexed arrays, the holder bitset) is reset when a run
   acquires the scratch, and capacity beyond it is never read. So a
   run that raised mid-drain, a smaller population, an id evicted from
   the serve window and reinserted later, or a different message count
   leaves no residue in the next run.

   A scratch must only ever be used by one domain at a time; [Runner]
   creates one per worker through [Parallel.map_env]. *)
type scratch = {
  mutable s_nodes : int;  (* rows allocated in the node-indexed buffers *)
  mutable s_peers : int array array;  (* active peers per node ... *)
  mutable s_mult : int array array;  (* ... and each one's open contact records *)
  mutable s_n_peers : int array;
  mutable s_held : int array array;
  mutable s_held_len : int array;
  mutable s_msgs : int;  (* capacity of the message-indexed buffers *)
  mutable s_message_of : Message.t option array;
  mutable s_stride : int;  (* holder-bitset bytes per message *)
  mutable s_holders : Bytes.t;
  mutable s_delivered : float array;  (* nan = not delivered *)
  mutable s_copies_of : int array;
  mutable s_attempts_of : int array;
  mutable s_cr_time : float array;  (* creation stream: times ... *)
  mutable s_cr_id : int array;  (* ... and message ids, *)
  mutable s_cr_tmp_time : float array;  (* with the sort's second buffer *)
  mutable s_cr_tmp_id : int array;
}

let scratch () =
  {
    s_nodes = 0;
    s_peers = [||];
    s_mult = [||];
    s_n_peers = [||];
    s_held = [||];
    s_held_len = [||];
    s_msgs = 0;
    s_message_of = [||];
    s_stride = 0;
    s_holders = Bytes.empty;
    s_delivered = [||];
    s_copies_of = [||];
    s_attempts_of = [||];
    s_cr_time = [||];
    s_cr_id = [||];
    s_cr_tmp_time = [||];
    s_cr_tmp_id = [||];
  }

let ensure_nodes s n =
  if n > s.s_nodes then begin
    s.s_peers <- Array.make n [||];
    s.s_mult <- Array.make n [||];
    s.s_n_peers <- Array.make n 0;
    s.s_held <- Array.make n [||];
    s.s_held_len <- Array.make n 0;
    s.s_nodes <- n
  end
  else begin
    Array.fill s.s_n_peers 0 n 0;
    Array.fill s.s_held_len 0 n 0
  end

let ensure_msgs s n_msgs ~stride =
  if n_msgs > s.s_msgs then begin
    s.s_message_of <- Array.make n_msgs None;
    s.s_delivered <- Array.make n_msgs Float.nan;
    s.s_copies_of <- Array.make n_msgs 0;
    s.s_attempts_of <- Array.make n_msgs 0;
    s.s_cr_time <- Array.make n_msgs 0.;
    s.s_cr_id <- Array.make n_msgs 0;
    s.s_cr_tmp_time <- Array.make n_msgs 0.;
    s.s_cr_tmp_id <- Array.make n_msgs 0;
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

(* Events compare on the (time, code) key; a creation's code is its
   message id. Equal keys are identical events, so every correct sort
   gives the same bytes. *)
let[@psn.hot] key_le (time : float array) (code : int array) i j =
  let c = Float.compare time.(i) time.(j) in
  c < 0 || (c = 0 && code.(i) <= code.(j))

let[@psn.hot] swap_events (time : float array) (code : int array) i j =
  let t = time.(i) in
  time.(i) <- time.(j);
  time.(j) <- t;
  let k = code.(i) in
  code.(i) <- code.(j);
  code.(j) <- k

(* Sinks entry [j] left into the sorted run [lo, j). *)
let[@psn.hot] rec sink time code lo j =
  if j > lo && not (key_le time code (j - 1) j) then begin
    swap_events time code (j - 1) j;
    sink time code lo (j - 1)
  end

let[@psn.hot] rec insertion_sort time code lo j hi =
  if j < hi then begin
    sink time code lo j;
    insertion_sort time code lo (j + 1) hi
  end

(* Merges the sorted runs [i, mid) and [j, hi) of (st, sc) into
   (dt, dc) from [k], the left run first on ties. *)
let[@psn.hot] rec merge (st : float array) (sc : int array) (dt : float array) (dc : int array) i
    mid j hi k =
  if i < mid && (j = hi || key_le st sc i j) then begin
    dt.(k) <- st.(i);
    dc.(k) <- sc.(i);
    merge st sc dt dc (i + 1) mid j hi (k + 1)
  end
  else if j < hi then begin
    dt.(k) <- st.(j);
    dc.(k) <- sc.(j);
    merge st sc dt dc i mid (j + 1) hi (k + 1)
  end

(* Sorts the events [lo, hi) into (dt, dc). On entry both pairs hold
   the same events there; (st, sc) is then scratch. Each level sorts
   its halves into (st, sc) and merges them back, skipping the merge
   when the halves are already in order. *)
let[@psn.hot] rec sort_into st sc dt dc lo hi =
  if hi - lo <= 16 then insertion_sort dt dc lo (lo + 1) hi
  else begin
    let mid = (lo + hi) lsr 1 in
    sort_into dt dc st sc lo mid;
    sort_into dt dc st sc mid hi;
    if key_le st sc (mid - 1) mid then begin
      Array.blit st lo dt lo (hi - lo);
      Array.blit sc lo dc lo (hi - lo)
    end
    else merge st sc dt dc lo mid mid hi lo
  end

let[@psn.hot] rec sorted_from time code i len =
  i >= len || (key_le time code (i - 1) i && sorted_from time code (i + 1) len)

let[@psn.hot] sort_events time code ~tmp_time ~tmp_code len =
  if not (sorted_from time code 1 len) then begin
    Array.blit time 0 tmp_time 0 len;
    Array.blit code 0 tmp_code 0 len;
    sort_into tmp_time tmp_code time code 0 len
  end

(* The contact stream is sorted once per schedule; [Engine.run] is
   [run_on] over a fresh one. *)
let prepare ?faults ?(telemetry = T.Sink.null) trace =
  T.with_span telemetry "engine.prepare" @@ fun () ->
  if Trace.n_nodes trace > Node.id_bound then
    invalid_arg "Engine.prepare: population exceeds the 2^28 packed-event limit";
  (* The degraded contact set is what every run replays: downtime and
     jitter faults never touch the event loop itself, so the schedule
     is a pure function of (trace, faults) — order-independent. *)
  let trace = match faults with None -> trace | Some plan -> Faults.degrade plan trace in
  let n_events = 2 * Trace.n_contacts trace in
  let ev_time = Array.make n_events 0. and ev_code = Array.make n_events 0 in
  let idx = ref 0 in
  Trace.iter_contacts trace (fun (c : Contact.t) ->
      let i = !idx in
      ev_time.(i) <- c.Contact.t_start;
      ev_code.(i) <- code_start c.Contact.a c.Contact.b;
      ev_time.(i + 1) <- c.Contact.t_end;
      ev_code.(i + 1) <- code_end c.Contact.a c.Contact.b;
      idx := i + 2);
  sort_events ev_time ev_code ~tmp_time:(Array.make n_events 0.) ~tmp_code:(Array.make n_events 0)
    n_events;
  { trace; faults; ev_time; ev_code }

(* The creation stream is written into the scratch buffers and sorted
   in place: no cons cells, no per-event allocation — this is rebuilt
   once per run. *)
let[@psn.hot] sort_creations s messages n_msgs =
  let time = s.s_cr_time and id = s.s_cr_id in
  (* The hot contract here is no allocation per *event*; the two
     suppressed sites below are once per run: one cursor cell and the
     walker closure. *)
  let idx = (ref 0) [@lint.allow "hot-path-alloc"] in
  List.iter
    ((fun (m : Message.t) ->
       time.(!idx) <- m.Message.t_create;
       id.(!idx) <- m.Message.id;
       incr idx)
    [@lint.allow "hot-path-alloc"])
    messages;
  sort_events time id ~tmp_time:s.s_cr_tmp_time ~tmp_code:s.s_cr_tmp_id n_msgs

(* A copy of the first [len] entries of [a] with room for as many
   again (at least 4). *)
let grown a len =
  let bigger = Array.make (Int.max 4 (2 * len)) 0 in
  Array.blit a 0 bigger 0 len;
  bigger

(* The slot of [b] among entries [i, len) of [ps], or [len] when
   absent. *)
let rec peer_index (ps : int array) (b : int) len i =
  if i = len || ps.(i) = b then i else peer_index ps b len (i + 1)

(* One run over the schedule [schedule ()] returns. The thunk is forced
   inside the setup span, so the one-shot [run] attributes its
   [prepare] to [engine.setup] and [run_on] pays nothing there. *)
let execute ?ttl ?scratch:reuse ~telemetry ~schedule ~messages algorithm =
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
  let sch = schedule () in
  let n = Trace.n_nodes sch.trace in
  let horizon = Trace.horizon sch.trace in
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
  let n_msgs = List.length messages in
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
  (* Active contacts as a dense peer list per node, each peer with its
     count of open contact records (duplicate records are tolerated).
     A node meets few peers at once, so finding one is a short scan;
     removal swaps the last peer into the freed slot, and the cascade
     iterates the list in O(deg). *)
  let peers = s.s_peers in
  let mult = s.s_mult in
  let n_peers = s.s_n_peers in
  let add_peer a b =
    let len = n_peers.(a) in
    let p = peer_index peers.(a) b len 0 in
    if p < len then mult.(a).(p) <- mult.(a).(p) + 1
    else begin
      if len = Array.length peers.(a) then begin
        peers.(a) <- grown peers.(a) len;
        mult.(a) <- grown mult.(a) len
      end;
      peers.(a).(len) <- b;
      mult.(a).(len) <- 1;
      n_peers.(a) <- len + 1
    end
  in
  let remove_peer a b =
    let len = n_peers.(a) in
    let p = peer_index peers.(a) b len 0 in
    if p < len then begin
      let m = mult.(a) in
      m.(p) <- m.(p) - 1;
      if m.(p) = 0 then begin
        let last = len - 1 in
        peers.(a).(p) <- peers.(a).(last);
        m.(p) <- m.(last);
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
  (* Held messages per node, in the order the node acquired them. A
     copy is never dropped while its message is live (infinite
     buffers), but once the message is delivered or expired it is dead
     for the rest of the run, and [exchange] drops it from the list it
     walks. *)
  let held = s.s_held in
  let held_len = s.s_held_len in
  let push_held node id =
    if held_len.(node) = Array.length held.(node) then
      held.(node) <- grown held.(node) held_len.(node);
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
    match sch.faults with
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
    (* Offer every live copy [a] holds across the new contact with [b],
       and drop the dead ones: delivered messages, and expired ones
       (drain time never goes backwards, so an expired message stays
       expired). The pass is stable — a write pointer keeps the live
       ids in their order — because offer order decides which copies
       stateful and randomized algorithms make. Nothing is appended to
       [a]'s list mid-walk: an offer's only cascade is of the offered
       message, which [a] already holds. *)
    let ids = held.(a) in
    let len = held_len.(a) in
    let live = ref 0 in
    for i = 0 to len - 1 do
      let id = ids.(i) in
      if not (is_delivered id) then
        match message_of.(id) with
        | Some m when not (expired m time) ->
          ids.(!live) <- id;
          incr live;
          offer m ~holder:a ~peer:b time
        | Some _ | None -> ()
    done;
    assert (held_len.(a) = len);
    held_len.(a) <- !live
  in
  sort_creations s messages n_msgs;
  let ev_time = sch.ev_time and ev_code = sch.ev_code in
  let n_contact_events = Array.length ev_time in
  T.end_span telemetry;
  T.count telemetry "engine.runs" 1;
  T.count telemetry "engine.events" (n_contact_events + n_msgs);
  T.with_span telemetry "engine.drain" (fun () ->
      let cr_time = s.s_cr_time and cr_id = s.s_cr_id in
      let i = ref 0 and j = ref 0 in
      while !i < n_contact_events || !j < n_msgs do
        (* Merge on the (time, code) order: creations rank above both
           contact kinds, so creation [j] goes before contact event [i]
           exactly when its time is smaller (Float.compare, the sort's
           own comparator). *)
        if !j < n_msgs && (!i = n_contact_events || Float.compare cr_time.(!j) ev_time.(!i) < 0)
        then begin
          let time = cr_time.(!j) in
          (match message_of.(cr_id.(!j)) with
          | Some m ->
            algorithm.Algorithm.on_create m;
            receive m m.Message.src time
          | None -> assert false (* ids validated dense above *));
          incr j
        end
        else begin
          let time = ev_time.(!i) in
          let c = ev_code.(!i) in
          let a = (c lsr id_bits) land id_mask and b = c land id_mask in
          if c lsr (2 * id_bits) = 0 then begin
            remove_peer a b;
            remove_peer b a
          end
          else begin
            (* Chaos hook: lets a plan kill or fail a run mid-drain,
               leaving the scratch mid-flight for the next acquisition
               to reset. Keyless on purpose — no per-event allocation
               on the disabled path; use hit rules ([@N]) to pick a
               specific contact. *)
            Psn_robust.Failpoint.trigger "engine.contact";
            algorithm.Algorithm.observe_contact ~time ~a ~b;
            add_peer a b;
            add_peer b a;
            exchange a b time;
            exchange b a time
          end;
          incr i
        end
      done);
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

let run_on ?ttl ?scratch ?(telemetry = T.Sink.null) schedule ~messages algorithm =
  execute ?ttl ?scratch ~telemetry ~schedule:(fun () -> schedule) ~messages algorithm

let run ?ttl ?faults ?scratch ?(telemetry = T.Sink.null) ~trace ~messages algorithm =
  execute ?ttl ?scratch ~telemetry
    ~schedule:(fun () -> prepare ?faults ~telemetry trace)
    ~messages algorithm
