(** Per-step contact snapshots.

    The zero-weight layer of the space-time graph: for every step of the
    {!Timegrid}, the undirected graph of node pairs that were in contact
    at some point during that step's interval. This is the structure the
    path enumerator, the flooding oracle and Fig. 2 all consume.

    The layout is flat: one row per (step, node) cell, in
    compressed-row form. Cell [cell t ~step node] lists the node's
    neighbours of the step at indices [\[o.(i), o.(i + 1))] of
    [targets t], where [o = offsets t] and [i] is the cell, in ascending
    order and without duplicates. Cells of one step are consecutive, so
    a step's rows are [\[o.(i0), o.(i0 + n))] with [i0 = cell t ~step 0]. *)

type t

val of_trace : ?delta:float -> Psn_trace.Trace.t -> t
(** Rasterise a trace onto the grid ([delta] defaults to the paper's
    10 s). Duplicate edges within a step are merged. Linear in the
    cells plus the contact-steps: one pass counts the cells' degrees,
    prefix sums place the rows, a second pass fills them in neighbour
    order (so every row is born sorted), and a last pass drops each
    row's repeats in place. *)

val grid : t -> Timegrid.t
val n_nodes : t -> int
val n_steps : t -> int

val cell : t -> step:int -> Psn_trace.Node.id -> int
(** The row index of a (step, node) cell: [(step - 1) * n_nodes + node].
    Raises [Invalid_argument] on a bad step or node. *)

val offsets : t -> int array
(** Row bounds, [n_steps * n_nodes + 1] entries (see above). The
    snapshot's own array, shared: callers must not write to it. *)

val targets : t -> int array
(** The rows' neighbour ids, back to back (see above). Shared like
    {!offsets}; entries past the last offset are not part of any row. *)

val in_contact : t -> step:int -> Psn_trace.Node.id -> Psn_trace.Node.id -> bool
(** A binary search of the first node's row. *)

val edges : t -> step:int -> (Psn_trace.Node.id * Psn_trace.Node.id) list
(** Deduplicated [(a, b)] pairs with [a < b]: [a] ascending, and each
    [a]'s partners in descending order (the order Fig. 2 prints). *)

val active_steps : t -> int list
(** Steps that have at least one edge, ascending — lets sparse traces be
    walked quickly. *)

val spread : t -> step:int -> seen:bool array -> int array -> from:int -> until:int -> int
(** [spread t ~step ~seen queue ~from ~until] closes a node set under
    the step's contacts (the zero-weight closure), breadth first. The
    seeds are [queue.(from .. until - 1)], already marked in [seen];
    every unmarked node they reach is marked and appended to [queue]
    after them. Returns the new end of [queue], which must have room
    for every appended node ([n_nodes] entries always suffice).
    Allocates nothing, so one [seen] and one [queue] serve any number of
    closures: a step's components are the closures of its unmarked,
    non-isolated nodes in turn. *)
