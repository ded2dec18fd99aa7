module Trace = Psn_trace.Trace
module Contact = Psn_trace.Contact

(* Compressed rows, one per (step, node) cell. Cell
   [(step - 1) * n_nodes + node] holds the node's neighbours of the
   step at [targets.(offsets.(cell)) .. targets.(offsets.(cell + 1) - 1)],
   ascending and distinct. [targets] may run past the last offset: the
   slack is what deduplication freed, and is never read. *)
type t = {
  grid : Timegrid.t;
  n_nodes : int;
  offsets : int array;  (* n_steps * n_nodes + 1 *)
  targets : int array;
}

(* Four linear passes. (1) Count each cell's degree, and each node's
   contacts; inclusive prefix sums then make [offsets.(i)] the end of
   cell [i]'s row. (2) Group the contacts by endpoint (a counting
   sort). (3) Fill the rows from their ends down, taking neighbours in
   descending id order, so every row comes out ascending and
   [offsets.(i)] ends at its start. (4) Drop each row's repeats (a pair
   touching one step through several contact records), compacting the
   rows to the left. No row is ever compared and sorted. *)
let of_trace ?delta trace =
  let grid = Timegrid.create ?delta ~horizon:(Trace.horizon trace) () in
  let n = Trace.n_nodes trace in
  let cells = Timegrid.n_steps grid * n in
  let contacts = Trace.contacts trace in
  let n_contacts = Array.length contacts in
  let first = Array.make n_contacts 0 and last = Array.make n_contacts 0 in
  let offsets = Array.make (cells + 1) 0 in
  let by_node_off = Array.make (n + 1) 0 in
  Array.iteri
    (fun k (c : Contact.t) ->
      let f, l =
        Timegrid.steps_overlapping grid ~t_start:c.Contact.t_start ~t_end:c.Contact.t_end
      in
      first.(k) <- f;
      last.(k) <- l;
      let a = c.Contact.a and b = c.Contact.b in
      by_node_off.(a) <- by_node_off.(a) + 1;
      by_node_off.(b) <- by_node_off.(b) + 1;
      for step = f to l do
        let base = (step - 1) * n in
        offsets.(base + a) <- offsets.(base + a) + 1;
        offsets.(base + b) <- offsets.(base + b) + 1
      done)
    contacts;
  let prefix_sums a len =
    for i = 1 to len - 1 do
      a.(i) <- a.(i) + a.(i - 1)
    done;
    a.(len) <- a.(len - 1)
  in
  prefix_sums offsets cells;
  prefix_sums by_node_off n;
  let by_node = Array.make (2 * n_contacts) 0 in
  Array.iteri
    (fun k (c : Contact.t) ->
      let p = by_node_off.(c.Contact.a) - 1 in
      by_node_off.(c.Contact.a) <- p;
      by_node.(p) <- k;
      let p = by_node_off.(c.Contact.b) - 1 in
      by_node_off.(c.Contact.b) <- p;
      by_node.(p) <- k)
    contacts;
  let targets = Array.make offsets.(cells) 0 in
  for v = n - 1 downto 0 do
    for j = by_node_off.(v) to by_node_off.(v + 1) - 1 do
      let k = by_node.(j) in
      let c = contacts.(k) in
      let u = if c.Contact.a = v then c.Contact.b else c.Contact.a in
      for step = first.(k) to last.(k) do
        let i = ((step - 1) * n) + u in
        let p = offsets.(i) - 1 in
        offsets.(i) <- p;
        targets.(p) <- v
      done
    done
  done;
  let w = ref 0 in
  for i = 0 to cells - 1 do
    let lo = offsets.(i) and hi = offsets.(i + 1) in
    offsets.(i) <- !w;
    for j = lo to hi - 1 do
      let v = targets.(j) in
      if !w = offsets.(i) || targets.(!w - 1) <> v then begin
        targets.(!w) <- v;
        incr w
      end
    done
  done;
  offsets.(cells) <- !w;
  { grid; n_nodes = n; offsets; targets }

let grid t = t.grid
let n_nodes t = t.n_nodes
let n_steps t = Timegrid.n_steps t.grid
let offsets t = t.offsets
let targets t = t.targets

let check t ~step node =
  if step < 1 || step > n_steps t then invalid_arg "Snapshot: step out of range";
  if node < 0 || node >= t.n_nodes then invalid_arg "Snapshot: node out of range"

let cell t ~step node =
  check t ~step node;
  ((step - 1) * t.n_nodes) + node

(* Reference lookup: the Path validity predicates and the adjacency
   property tests are stated with it. A binary search of [a]'s row. *)
let[@lint.allow "dead-export"] in_contact t ~step a b =
  check t ~step b;
  let i = cell t ~step a in
  let rec search lo hi =
    lo < hi
    &&
    let mid = (lo + hi) lsr 1 in
    let x = t.targets.(mid) in
    x = b || if x < b then search (mid + 1) hi else search lo mid
  in
  search t.offsets.(i) t.offsets.(i + 1)

let edges t ~step =
  let base = cell t ~step 0 in
  let acc = ref [] in
  for a = t.n_nodes - 1 downto 0 do
    for j = t.offsets.(base + a) to t.offsets.(base + a + 1) - 1 do
      let b = t.targets.(j) in
      if a < b then acc := (a, b) :: !acc
    done
  done;
  !acc

let active_steps t =
  let acc = ref [] in
  for step = n_steps t downto 1 do
    if t.offsets.(step * t.n_nodes) > t.offsets.((step - 1) * t.n_nodes) then acc := step :: !acc
  done;
  !acc

(* Appends the unseen entries of [targets.(j .. stop - 1)] to [queue]
   from [tail], marking them; returns the new tail. *)
let[@psn.hot] rec push_unseen (targets : int array) (seen : bool array) (queue : int array) j stop
    tail =
  if j = stop then tail
  else begin
    let v = targets.(j) in
    if seen.(v) then push_unseen targets seen queue (j + 1) stop tail
    else begin
      seen.(v) <- true;
      queue.(tail) <- v;
      push_unseen targets seen queue (j + 1) stop (tail + 1)
    end
  end

let[@psn.hot] rec close t base seen queue head tail =
  if head = tail then tail
  else begin
    let x = queue.(head) in
    let tail =
      push_unseen t.targets seen queue t.offsets.(base + x) t.offsets.(base + x + 1) tail
    in
    close t base seen queue (head + 1) tail
  end

let[@psn.hot] spread t ~step ~seen queue ~from ~until =
  if step < 1 || step > n_steps t then invalid_arg "Snapshot: step out of range";
  close t ((step - 1) * t.n_nodes) seen queue from until
