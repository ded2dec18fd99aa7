module Contact = Psn_trace.Contact
module Trace = Psn_trace.Trace

type policy = Drop | Slide

type config = { span : float; budget : int; policy : policy; nodes : int }

type counters = {
  ingested : int;
  evicted : int;
  budget_evicted : int;
  dropped : int;
}

(* Live contacts sit in a binary min-heap on the eviction key
   (t_end, t_start, a, b) — t_end first because expiry is what pops,
   the rest because determinism demands a total order: with distinct
   keys the pop sequence is a pure function of the live set, never of
   the heap's internal layout (which is why [restore]'s rebuilt heap
   is observationally identical to the original). *)
type t = {
  cfg : config;
  mutable heap : Contact.t array;  (* slots [0, len) are live *)
  mutable len : int;
  mutable w_now : float;
  mutable last_start : float;  (* monotone-ingest guard *)
  mutable w_nodes : int;  (* population ratchet (== cfg.nodes when fixed) *)
  mutable w_peak : int;
  mutable ingested : int;
  mutable evicted : int;
  mutable budget_evicted : int;
  mutable dropped : int;
}

let evict_key_less (c1 : Contact.t) (c2 : Contact.t) =
  let c = Float.compare c1.Contact.t_end c2.Contact.t_end in
  if c <> 0 then c < 0 else Contact.compare_by_start c1 c2 < 0

(* ---- heap primitives ------------------------------------------------ *)

let swap w i j =
  let tmp = w.heap.(i) in
  w.heap.(i) <- w.heap.(j);
  w.heap.(j) <- tmp

let rec sift_up w i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if evict_key_less w.heap.(i) w.heap.(parent) then begin
      swap w i parent;
      sift_up w parent
    end
  end

let rec sift_down w i =
  let l = (2 * i) + 1 in
  if l < w.len then begin
    let smallest = if evict_key_less w.heap.(l) w.heap.(i) then l else i in
    let r = l + 1 in
    let smallest =
      if r < w.len && evict_key_less w.heap.(r) w.heap.(smallest) then r else smallest
    in
    if smallest <> i then begin
      swap w i smallest;
      sift_down w smallest
    end
  end

let push w c =
  if w.len = Array.length w.heap then begin
    let cap = Int.max 16 (2 * w.len) in
    let bigger = Array.make cap c in
    Array.blit w.heap 0 bigger 0 w.len;
    w.heap <- bigger
  end;
  w.heap.(w.len) <- c;
  w.len <- w.len + 1;
  sift_up w (w.len - 1)

let pop_min w =
  let top = w.heap.(0) in
  w.len <- w.len - 1;
  if w.len > 0 then begin
    w.heap.(0) <- w.heap.(w.len);
    sift_down w 0
  end;
  top

(* ---- construction --------------------------------------------------- *)

(* The bound ingest enforces through [Contact.of_fields]: a population
   never exceeds [Node.id_bound], whether pinned, grown or restored. *)
let population_ok n = n >= 0 && n <= Psn_trace.Node.id_bound

let population_error n =
  Printf.sprintf "population must be between 0 and %d (got %d)" Psn_trace.Node.id_bound n

let create cfg =
  if not (cfg.span > 0. && Float.is_finite cfg.span) then
    Error (Printf.sprintf "window span must be positive and finite (got %g)" cfg.span)
  else if cfg.budget < 1 then
    Error (Printf.sprintf "window budget must be at least 1 (got %d)" cfg.budget)
  else if not (population_ok cfg.nodes) then Error (population_error cfg.nodes)
  else
    Ok
      {
        cfg;
        heap = [||];
        len = 0;
        w_now = 0.;
        last_start = 0.;
        w_nodes = cfg.nodes;
        w_peak = 0;
        ingested = 0;
        evicted = 0;
        budget_evicted = 0;
        dropped = 0;
      }

let config w = w.cfg
let now w = w.w_now
let start w = Float.max 0. (w.w_now -. w.cfg.span)
let last_start w = w.last_start
let n_nodes w = w.w_nodes
let size w = w.len
let peak w = w.w_peak

let counters w =
  {
    ingested = w.ingested;
    evicted = w.evicted;
    budget_evicted = w.budget_evicted;
    dropped = w.dropped;
  }

(* ---- sliding -------------------------------------------------------- *)

let evict_expired w =
  let t0 = start w in
  let n = ref 0 in
  while w.len > 0 && w.heap.(0).Contact.t_end <= t0 do
    ignore (pop_min w);
    incr n
  done;
  w.evicted <- w.evicted + !n;
  !n

type verdict = Accepted | Rejected_over_budget

let ingest w (c : Contact.t) =
  if c.Contact.t_start < w.last_start then
    Error
      (Printf.sprintf "out-of-order contact: start %g before previous start %g" c.Contact.t_start
         w.last_start)
  else if w.cfg.nodes > 0 && c.Contact.b >= w.cfg.nodes then
    Error
      (Printf.sprintf "contact endpoint n%d outside fixed population of %d" c.Contact.b
         w.cfg.nodes)
  else begin
    w.last_start <- c.Contact.t_start;
    if c.Contact.t_start > w.w_now then w.w_now <- c.Contact.t_start;
    if w.cfg.nodes = 0 && c.Contact.b + 1 > w.w_nodes then w.w_nodes <- c.Contact.b + 1;
    ignore (evict_expired w);
    if c.Contact.t_end <= start w then begin
      (* Already behind the window on arrival: never goes live, but the
         stream clock and population ratchet above still saw it. *)
      w.ingested <- w.ingested + 1;
      w.evicted <- w.evicted + 1;
      Ok Accepted
    end
    else if w.len >= w.cfg.budget then begin
      match w.cfg.policy with
      | Drop ->
        w.dropped <- w.dropped + 1;
        Ok Rejected_over_budget
      | Slide ->
        while w.len >= w.cfg.budget do
          ignore (pop_min w);
          w.budget_evicted <- w.budget_evicted + 1
        done;
        push w c;
        w.ingested <- w.ingested + 1;
        if w.len > w.w_peak then w.w_peak <- w.len;
        Ok Accepted
    end
    else begin
      push w c;
      w.ingested <- w.ingested + 1;
      if w.len > w.w_peak then w.w_peak <- w.len;
      Ok Accepted
    end
  end

let advance w t =
  if t < w.w_now then
    Error (Printf.sprintf "cannot advance backwards: %g is before now %g" t w.w_now)
  else if not (Float.is_finite t) then Error "cannot advance to a non-finite time"
  else begin
    w.w_now <- t;
    Ok (evict_expired w)
  end

(* ---- reading -------------------------------------------------------- *)

let contacts w =
  let live = Array.sub w.heap 0 w.len in
  Array.sort Contact.compare_by_start live;
  Array.to_list live

let trace w =
  let t0 = start w in
  let horizon = w.w_now -. t0 in
  if not (horizon > 0.) then Error "window is empty: no stream time has elapsed"
  else if w.w_nodes = 0 then Error "window is empty: no node has been seen"
  else begin
    (* Clip-and-rebase, mirroring [Trace.restrict full ~t0 ~t1:now]
       field for field: s = max t_start t0, e = min t_end now, keep
       when s < e, shift by -t0. Live contacts already satisfy
       t_end > t0 (eviction) and t_start <= now (monotone ingest), so
       the only clip that can exclude one is t_start = now. The
       contacts go to [Trace.create] in heap order, and its one sort is
       on the clipped key: sorting before clipping would leave the
       straddling contacts, all moved to start 0, in arbitrary end
       order, and the trace would be sorted twice. *)
    let clipped = ref [] in
    for i = w.len - 1 downto 0 do
      let c = w.heap.(i) in
      let s = Float.max c.Contact.t_start t0 in
      let e = Float.min c.Contact.t_end w.w_now in
      if s < e then
        clipped :=
          Contact.make ~a:c.Contact.a ~b:c.Contact.b ~t_start:(s -. t0) ~t_end:(e -. t0)
          :: !clipped
    done;
    Ok (Trace.create ~n_nodes:w.w_nodes ~horizon !clipped)
  end

(* ---- snapshot restore ----------------------------------------------- *)

let restore cfg ~now:t_now ~last_start ~n_nodes:pop ~peak ~counters:(cnt : counters) live =
  match create cfg with
  | Error _ as e -> e
  | Ok w ->
    if last_start > t_now then
      Error (Printf.sprintf "snapshot clock skew: last start %g after now %g" last_start t_now)
    else if cfg.nodes > 0 && pop <> cfg.nodes then
      Error (Printf.sprintf "snapshot population %d disagrees with fixed %d" pop cfg.nodes)
    else if not (population_ok pop) then Error (population_error pop)
    else begin
      w.w_now <- t_now;
      w.last_start <- last_start;
      w.w_nodes <- pop;
      let t0 = start w in
      let bad =
        List.find_opt
          (fun (c : Contact.t) ->
            c.Contact.t_end <= t0 || c.Contact.t_start > t_now
            || (cfg.nodes > 0 && c.Contact.b >= cfg.nodes)
            || (cfg.nodes = 0 && c.Contact.b >= pop))
          live
      in
      match bad with
      | Some c ->
        Error
          (Format.asprintf "snapshot contact %a is inconsistent with the window clock" Contact.pp
             c)
      | None ->
        if List.length live > cfg.budget then
          Error
            (Printf.sprintf "snapshot holds %d live contacts over budget %d" (List.length live)
               cfg.budget)
        else begin
          List.iter (fun c -> push w c) live;
          w.w_peak <- Int.max peak w.len;
          w.ingested <- cnt.ingested;
          w.evicted <- cnt.evicted;
          w.budget_evicted <- cnt.budget_evicted;
          w.dropped <- cnt.dropped;
          Ok w
        end
    end
