module Snapshot = Psn_spacetime.Snapshot
module Timegrid = Psn_spacetime.Timegrid

type config = {
  k : int;
  max_hops : int option;
  stop_at_total : int option;
  exhaustive : bool;
}

let default_config = { k = 2000; max_hops = None; stop_at_total = None; exhaustive = false }

type arrival = { path : Path.t; step : int; time : float; duration : float }

type result = {
  arrivals : arrival array;
  stopped_early : bool;
  steps_processed : int;
  src : Psn_trace.Node.id;
  dst : Psn_trace.Node.id;
  t_create : float;
}

(* Bitsets are [stride]-byte rows; [base] is the row's first byte. *)
let[@psn.hot] [@inline] bitset_mem_at bs base i =
  Char.code (Bytes.get bs (base + (i lsr 3))) land (1 lsl (i land 7)) <> 0

let[@psn.hot] [@inline] bitset_add_at bs base i =
  let byte = base + (i lsr 3) in
  Bytes.set bs byte (Char.chr (Char.code (Bytes.get bs byte) lor (1 lsl (i land 7))))

(* Whether the bitset row at [base] holds any of [nodes.(j .. stop - 1)]. *)
let[@psn.hot] rec bitset_meets bs base (nodes : int array) j stop =
  j < stop && (bitset_mem_at bs base nodes.(j) || bitset_meets bs base nodes (j + 1) stop)

(* Per-run DP state, allocated once per run.

   The table is a set of parallel slices: the paths node [u] retains
   with [h] hops sit at positions [0, counts.(u).(h)) of
   - [hops.(u).(h)]: the path's hops, newest first, each packed
     [step * n + node]; extensions share their parent's tail, so an
     extension costs one cons;
   - [born.(u).(h)]: the step that created it;
   - [marks.(u).(h)]: its visited set, [stride] bytes per path.
   Level order is the nhops-ascending order the pruning needs, and a
   level only ever appends this step's new paths after its retained
   ones, so within a level paths are in creation order ([born]
   non-decreasing) and nothing is re-sorted or rebuilt. A node's levels
   are allocated when it first receives a path, a level's slices when it
   first fills; slices only grow. [top.(u)] is the highest non-empty
   level (0 when empty).

   The per-hop worklists [buckets.(h)] are stacks, [heights.(h)] deep,
   with the LIFO order of cons lists. An entry [(i lsl shift) lor u]
   names the path at position [i] of node [u]'s level [h] ([n <= 2^shift],
   so a pop decodes with a mask and a shift, no division): positions
   only move in the kill and the trim, after the worklists have drained.

   Every path born at or before [last_kill] survived that step's kill,
   so it visited none of that step's destination row
   [nbr.(kill_lo .. kill_hi - 1)]; such paths are a prefix of each
   level.

   Neighbours are read from the snapshot's flat rows: node [u]'s row
   this step is [nbr.(off.(row + u)) .. nbr.(off.(row + u + 1) - 1)],
   ascending. Its fresh edges (the row minus last step's) are
   [fresh.(fresh_off.(u)) .. fresh.(fresh_off.(u + 1) - 1)], in row
   order. *)
type state = {
  off : int array;
  nbr : int array;
  mutable row : int;  (* this step's first cell *)
  n : int;
  k : int;
  dst : int;
  hop_cap : int;
  budget : int;
  stride : int;
  hops : int list array array array;
  born : int array array array;
  marks : Bytes.t array array;
  counts : int array array;
  size : int array;
  top : int array;
  mutable live : int;
  buckets : int array array;
  heights : int array;
  shift : int;
  new_count : int array;  (* paths this step added to each node *)
  touched : int array;  (* nodes with [new_count > 0], first [n_touched] *)
  mutable n_touched : int;
  kth_old : int array;
  reach : int array;  (* per node, [reach_of] its neighbours this step *)
  mutable fresh : int array;
  fresh_off : int array;
  in_dst_component : bool array;
  component : int array;  (* the destination's component, first [n_component] *)
  mutable n_component : int;
  arrived : int array;  (* the destination's neighbours absent from the last kill's row *)
  mutable last_kill : int;
  mutable kill_lo : int;
  mutable kill_hi : int;
  mutable step : int;
  mutable step_time : float;
  mutable step_duration : float;
  mutable found : arrival list;  (* newest first *)
  mutable n_arrivals : int;
  mutable step_arrivals : int;
}

let grown slice len fill =
  let bigger = Array.make (Int.max 4 (2 * len)) fill in
  Array.blit slice 0 bigger 0 len;
  bigger

let[@psn.hot] rec lower_top counts h = if h > 0 && counts.(h) = 0 then lower_top counts (h - 1) else h

(* Empties node [u]'s level [h] for good, or cuts its live prefix to
   [len] and clears the slots past it: either way, dropped paths are
   garbage at once. Levels come and go as paths move up the hop counts,
   so an emptied level gives its slices back. *)
let[@psn.hot] truncate st u h len =
  let live = st.counts.(u).(h) in
  if len = 0 then begin
    st.hops.(u).(h) <- [||];
    st.born.(u).(h) <- [||];
    st.marks.(u).(h) <- Bytes.empty
  end
  else Array.fill st.hops.(u).(h) len (live - len) [];
  st.counts.(u).(h) <- len

(* Appends an unset path to node [u]'s level [h] — after the node's
   retained paths of that level and this step's earlier ones — and
   returns its position. *)
let[@inline] claim st u h =
  if Array.length st.counts.(u) = 0 then begin
    st.hops.(u) <- Array.make (st.hop_cap + 1) [||];
    st.born.(u) <- Array.make (st.hop_cap + 1) [||];
    st.marks.(u) <- Array.make (st.hop_cap + 1) Bytes.empty;
    st.counts.(u) <- Array.make (st.hop_cap + 1) 0
  end;
  let i = st.counts.(u).(h) in
  if i = Array.length st.born.(u).(h) then begin
    st.hops.(u).(h) <- grown st.hops.(u).(h) i [];
    st.born.(u).(h) <- grown st.born.(u).(h) i 0;
    let marks = Bytes.create (Array.length st.born.(u).(h) * st.stride) in
    Bytes.blit st.marks.(u).(h) 0 marks 0 (i * st.stride);
    st.marks.(u).(h) <- marks
  end;
  st.counts.(u).(h) <- i + 1;
  st.size.(u) <- st.size.(u) + 1;
  if h > st.top.(u) then st.top.(u) <- h;
  st.live <- st.live + 1;
  i

let[@inline] push st h entry =
  let height = st.heights.(h) in
  if height = Array.length st.buckets.(h) then st.buckets.(h) <- grown st.buckets.(h) height 0;
  st.buckets.(h).(height) <- entry;
  st.heights.(h) <- height + 1

(* The highest level from which a path extending along [targets] can
   still deliver or enter a table this step: above it every target is
   past the hop cap or the target's [kth_old]. Popping such a path would
   do nothing, so it is never pushed — which leaves every other path's
   turn, and the output, as they were. *)
let[@psn.hot] rec reach_of st (targets : int array) j stop acc =
  if j = stop then acc
  else
    let v = targets.(j) in
    if v = st.dst then max_int
    else
      reach_of st targets (j + 1) stop (Int.max acc (Int.min (st.hop_cap - 1) (st.kth_old.(v) - 1)))

(* Whether node [u] holds a path born at or after [since] on a level up
   to [h]: the last path of some level, as levels are in creation
   order. *)
let[@psn.hot] rec has_recent st u since h =
  h > 0
  && ((st.counts.(u).(h) > 0 && st.born.(u).(h).(st.counts.(u).(h) - 1) >= since)
     || has_recent st u since (h - 1))

(* Start of the run of paths born at or after [since] that ends a
   level's live prefix [0, i). *)
let[@psn.hot] rec recent_from born i since =
  if i > 0 && born.(i - 1) >= since then recent_from born (i - 1) since else i

(* Pushes node [u]'s retained paths, in table order, that can still
   produce novel extensions or deliveries this step: those born last
   step or later (a suffix of each level) on levels up to [recent], and
   all paths on levels up to [all] ([all <= recent]). *)
let[@psn.hot] seed st u ~all ~recent =
  for h = 1 to Int.min recent st.top.(u) do
    let len = st.counts.(u).(h) in
    let first = if h <= all then 0 else recent_from st.born.(u).(h) len (st.step - 1) in
    for i = first to len - 1 do
      (push st h ((i lsl st.shift) lor u)) [@lint.allow "hot-path-alloc"]
      (* a stack only grows until it holds a step's peak worklist *)
    done
  done

let to_path ~n hops_rev ~dst ~step =
  Path.of_hops
    (List.fold_left
       (fun acc h -> { Path.node = h mod n; step = h / n } :: acc)
       [ { Path.node = dst; step } ]
       hops_rev)

let deliver st u h i =
  if st.step_arrivals < st.k && st.n_arrivals < st.budget then begin
    st.found <-
      {
        path = to_path ~n:st.n st.hops.(u).(h).(i) ~dst:st.dst ~step:st.step;
        step = st.step;
        time = st.step_time;
        duration = st.step_duration;
      }
      :: st.found;
    st.step_arrivals <- st.step_arrivals + 1;
    st.n_arrivals <- st.n_arrivals + 1
  end;
  if st.step_arrivals >= st.k || st.n_arrivals >= st.budget then raise Exit

(* Copies the path at position [i] of node [u]'s level [h] into node
   [v]'s table, one hop longer and ending at [v]. *)
let[@inline] extend st u h i v =
  if st.new_count.(v) = 0 then begin
    st.touched.(st.n_touched) <- v;
    st.n_touched <- st.n_touched + 1
  end;
  st.new_count.(v) <- st.new_count.(v) + 1;
  let h' = h + 1 in
  let j = claim st v h' in
  st.hops.(v).(h').(j) <- ((st.step * st.n) + v) :: st.hops.(u).(h).(i);
  st.born.(v).(h').(j) <- st.step;
  let marks = st.marks.(v).(h') in
  Bytes.blit st.marks.(u).(h) (i * st.stride) marks (j * st.stride) st.stride;
  bitset_add_at marks (j * st.stride) v;
  if h' <= st.reach.(v) then push st h' ((j lsl st.shift) lor v)

(* Offers the path along [targets.(j .. stop - 1)]. [marks] and [base]
   locate its visited set: extending writes only to level [h + 1], so
   they stay valid throughout. *)
let rec expand st u h i marks base (targets : int array) j stop =
  if j < stop then begin
    let v = targets.(j) in
    if v = st.dst then deliver st u h i
    else if
      h < st.hop_cap
      && h + 1 <= st.kth_old.(v)
      && st.new_count.(v) < st.k
      && not (bitset_mem_at marks base v)
    then extend st u h i v;
    expand st u h i marks base targets (j + 1) stop
  end

let rec drain st h =
  let height = st.heights.(h) in
  if height > 0 then begin
    let entry = st.buckets.(h).(height - 1) in
    st.heights.(h) <- height - 1;
    let u = entry land ((1 lsl st.shift) - 1) and i = entry lsr st.shift in
    if st.born.(u).(h).(i) >= st.step - 1 || st.in_dst_component.(u) then
      expand st u h i st.marks.(u).(h) (i * st.stride) st.nbr
        st.off.(st.row + u)
        st.off.(st.row + u + 1)
    else
      expand st u h i st.marks.(u).(h) (i * st.stride) st.fresh st.fresh_off.(u)
        st.fresh_off.(u + 1);
    drain st h
  end

(* Moves a level's paths that visited none of [nodes.(lo .. hi - 1)] to
   its front, in order; returns how many there are. *)
let[@psn.hot] rec compact hops born marks stride nodes lo hi i len kept =
  if i = len then kept
  else if bitset_meets marks (i * stride) nodes lo hi then
    compact hops born marks stride nodes lo hi (i + 1) len kept
  else begin
    if kept < i then begin
      hops.(kept) <- hops.(i);
      born.(kept) <- born.(i);
      Bytes.blit marks (i * stride) marks (kept * stride) stride
    end;
    compact hops born marks stride nodes lo hi (i + 1) len (kept + 1)
  end

(* Compacts node [w]'s levels [1, h]; returns how many paths they keep.
   A level's paths born at or before the last kill can meet the row only
   at [arrived.(0 .. n_arrived - 1)], so they are tested against those
   alone, and skipped when there are none; younger ones are tested
   against the whole row. *)
let[@psn.hot] rec kill_levels st w n_arrived lo hi h kept_below =
  if h = 0 then kept_below
  else begin
    let len = st.counts.(w).(h) in
    let hops = st.hops.(w).(h) and born = st.born.(w).(h) and marks = st.marks.(w).(h) in
    let old = recent_from born len (st.last_kill + 1) in
    let kept =
      if n_arrived = 0 then old
      else compact hops born marks st.stride st.arrived 0 n_arrived 0 old 0
    in
    let kept = compact hops born marks st.stride st.nbr lo hi old len kept in
    if kept < len then truncate st w h kept;
    kill_levels st w n_arrived lo hi (h - 1) (kept_below + kept)
  end

(* Drops every path node [w] holds that visited one of the nodes
   [nbr.(lo .. hi - 1)], this step's destination row. *)
let[@psn.hot] kill st w n_arrived lo hi =
  let size = kill_levels st w n_arrived lo hi st.top.(w) 0 in
  st.live <- st.live - st.size.(w) + size;
  st.size.(w) <- size;
  st.top.(w) <- lower_top st.counts.(w) st.top.(w)

(* Keeps node [u]'s first [k] paths in level order, dropping from the
   tail of the highest levels — the paths a stable merge of old (first)
   and new paths by hop count would cut. *)
let[@psn.hot] rec trim st u =
  let excess = st.size.(u) - st.k in
  if excess > 0 then begin
    let h = st.top.(u) in
    let cut = Int.min excess st.counts.(u).(h) in
    truncate st u h (st.counts.(u).(h) - cut);
    st.size.(u) <- st.size.(u) - cut;
    st.live <- st.live - cut;
    st.top.(u) <- lower_top st.counts.(u) h;
    trim st u
  end

(* Writes to [out] from [w] the entries of the sorted row
   [nbr.(j .. stop - 1)] absent from the sorted row
   [nbr.(p .. pstop - 1)], in row order; returns the new end. *)
let[@psn.hot] rec fresh_diff (nbr : int array) (out : int array) j stop p pstop w =
  if j = stop then w
  else if p = pstop || nbr.(j) < nbr.(p) then begin
    out.(w) <- nbr.(j);
    fresh_diff nbr out (j + 1) stop p pstop (w + 1)
  end
  else if nbr.(j) = nbr.(p) then fresh_diff nbr out (j + 1) stop (p + 1) pstop w
  else fresh_diff nbr out j stop (p + 1) pstop w

let run ?(config = default_config) snap ~src ~dst ~t_create =
  let n = Snapshot.n_nodes snap in
  if src < 0 || src >= n || dst < 0 || dst >= n then invalid_arg "Enumerate.run: node out of range";
  if src = dst then invalid_arg "Enumerate.run: src = dst";
  if config.k <= 0 then invalid_arg "Enumerate.run: k must be positive";
  (match config.max_hops with
  | Some h when h < 1 -> invalid_arg "Enumerate.run: max_hops must be positive"
  | Some _ | None -> ());
  (match config.stop_at_total with
  | Some t when t < 1 -> invalid_arg "Enumerate.run: stop_at_total must be positive"
  | Some _ | None -> ());
  let grid = Snapshot.grid snap in
  let c0 = Timegrid.step_of_time grid t_create in
  let k = config.k in
  let st =
    {
      off = Snapshot.offsets snap;
      nbr = Snapshot.targets snap;
      row = 0;
      n;
      k;
      dst;
      hop_cap = (match config.max_hops with None -> n | Some h -> Int.min h n);
      budget = (match config.stop_at_total with None -> max_int | Some t -> t);
      stride = (n + 7) / 8;
      hops = Array.make n [||];
      born = Array.make n [||];
      marks = Array.make n [||];
      counts = Array.make n [||];
      size = Array.make n 0;
      top = Array.make n 0;
      live = 0;
      (* Dijkstra-style bucket queue over nhops keeps intra-step
         expansion in ascending hop order, making the per-node
         k-shortest pruning exact. *)
      buckets = Array.make (n + 2) [||];
      heights = Array.make (n + 2) 0;
      shift =
        (let rec bits b = if 1 lsl b >= n then b else bits (b + 1) in
         bits 0);
      new_count = Array.make n 0;
      touched = Array.make n 0;
      n_touched = 0;
      kth_old = Array.make n max_int;
      reach = Array.make n 0;
      fresh = [||];
      fresh_off = Array.make (n + 1) 0;
      in_dst_component = Array.make n false;
      component = Array.make n 0;
      n_component = 0;
      arrived = Array.make n 0;
      last_kill = min_int;
      kill_lo = 0;
      kill_hi = 0;
      step = c0;
      step_time = 0.;
      step_duration = 0.;
      found = [];
      n_arrivals = 0;
      step_arrivals = 0;
    }
  in
  let i = claim st src 1 in
  st.hops.(src).(1).(i) <- [ (c0 * n) + src ];
  st.born.(src).(1).(i) <- c0;
  Bytes.fill st.marks.(src).(1) (i * st.stride) st.stride '\000';
  bitset_add_at st.marks.(src).(1) (i * st.stride) src;
  let stopped_early = ref false in
  let steps_processed = ref 0 in
  let off = st.off and nbr = st.nbr in
  let n_steps = Timegrid.n_steps grid in
  (try
     for step_now = c0 + 1 to n_steps do
       st.step <- step_now;
       incr steps_processed;
       let row = Snapshot.cell snap ~step:step_now 0 in
       st.row <- row;
       (* Fast mode extends path p over edge (u, v) only if p is newly
          created or the edge is newly present. This removes the
          dominant steady-state cost, but it is a different count: every
          later crossing of a contact that persists is dropped, while
          the paper's per-step DP (exhaustive mode) keeps each one as a
          distinct path. First arrivals agree. Fresh edges are a linear
          merge of this step's sorted row against last step's;
          exhaustive mode treats every edge as fresh. *)
       let needed = off.(row + n) - off.(row) in
       if needed > Array.length st.fresh then
         st.fresh <- Array.make (Int.max needed (2 * Array.length st.fresh)) 0;
       let filled = ref 0 in
       for u = 0 to n - 1 do
         st.fresh_off.(u) <- !filled;
         let lo = off.(row + u) and hi = off.(row + u + 1) in
         filled :=
           if config.exhaustive || step_now = 1 then fresh_diff nbr st.fresh lo hi 0 0 !filled
           else fresh_diff nbr st.fresh lo hi off.(row - n + u) off.(row - n + u + 1) !filled
       done;
       st.fresh_off.(n) <- !filled;
       (* Deliveries are different: every chain reaching the destination
          this step is a distinct counted path even along static edges
          (each step's traversal has its own timestamps), so inside the
          destination's contact component everything must extend. *)
       for i = 0 to st.n_component - 1 do
         st.in_dst_component.(st.component.(i)) <- false
       done;
       st.n_component <- 0;
       let dst_lo = off.(row + dst) and dst_hi = off.(row + dst + 1) in
       if dst_hi > dst_lo then begin
         st.component.(0) <- dst;
         st.in_dst_component.(dst) <- true;
         st.n_component <-
           Snapshot.spread snap ~step:step_now ~seen:st.in_dst_component st.component ~from:0
             ~until:1
       end;
       (* A retained path is active — it can still produce novel
          extensions or deliveries this step — when it was born last
          step or later, or its node has a fresh edge or sits in the
          destination's component. *)
       let any_active = ref false in
       for u = 0 to n - 1 do
         if
           u <> dst
           && st.size.(u) > 0
           && off.(row + u + 1) > off.(row + u)
           && (st.fresh_off.(u + 1) > st.fresh_off.(u)
              || st.in_dst_component.(u)
              || has_recent st u (step_now - 1) st.top.(u))
         then any_active := true
       done;
       if !any_active then begin
         let step_time = Timegrid.time_of_step grid step_now in
         st.step_time <- step_time;
         st.step_duration <- step_time -. t_create;
         st.step_arrivals <- 0;
         (* Threshold beyond which a candidate at node v cannot rank in
            v's top k once merged with the old paths: a full table's
            k-th path sits on its highest level. *)
         for v = 0 to n - 1 do
           st.kth_old.(v) <- (if st.size.(v) >= k then st.top.(v) else max_int)
         done;
         for u = 0 to n - 1 do
           st.reach.(u) <- reach_of st nbr off.(row + u) off.(row + u + 1) 0
         done;
         (* Seed the buckets with the active paths. *)
         for u = 0 to n - 1 do
           if u <> dst && st.size.(u) > 0 then
             seed st u
               ~all:
                 (if st.in_dst_component.(u) then st.reach.(u)
                  else reach_of st st.fresh st.fresh_off.(u) st.fresh_off.(u + 1) 0)
               ~recent:st.reach.(u)
         done;
         (* This step's new paths go straight into the table, after the
            retained ones of their level; [kth_old] and [new_count] keep
            the admission test on the pre-step table. *)
         (try
            for h = 1 to n do
              drain st h
            done
          with Exit ->
            (* A stop threshold fired mid-step; clear leftover buckets. *)
            Array.fill st.heights 0 (n + 2) 0);
         (* First preference is retrospective: once a node meets the
            destination, every path that ever passed through it (and was
            thus deliverable at this step at the latest) may not produce
            later deliveries. Drop every path that visited one of this
            step's destination contacts — both retained paths and this
            step's fresh ones. Their same-step deliveries were already
            emitted above. *)
         if dst_hi > dst_lo then begin
           let n_arrived = fresh_diff nbr st.arrived dst_lo dst_hi st.kill_lo st.kill_hi 0 in
           for w = 0 to n - 1 do
             if st.size.(w) > 0 then kill st w n_arrived dst_lo dst_hi
           done;
           st.last_kill <- step_now;
           st.kill_lo <- dst_lo;
           st.kill_hi <- dst_hi
         end;
         (* Cut each grown table back to its k fewest-hop paths. *)
         for i = 0 to st.n_touched - 1 do
           let v = st.touched.(i) in
           trim st v;
           st.new_count.(v) <- 0
         done;
         st.n_touched <- 0;
         if st.step_arrivals >= k || st.n_arrivals >= st.budget then begin
           stopped_early := true;
           raise Exit
         end
       end;
       if st.live = 0 then raise Exit
     done
   with Exit -> ());
  {
    arrivals = Array.of_list (List.rev st.found);
    stopped_early = !stopped_early;
    steps_processed = !steps_processed;
    src;
    dst;
    t_create;
  }

let first_arrival result = if Array.length result.arrivals = 0 then None else Some result.arrivals.(0)

let arrival_times result = Array.map (fun a -> a.time) result.arrivals
