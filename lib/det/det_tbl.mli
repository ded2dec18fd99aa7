(** Deterministic, key-ordered views over [Hashtbl].

    [Hashtbl.iter]/[Hashtbl.fold] enumerate bindings in hash order — an
    implementation detail that shifts with the compiler version, the
    insertion history and the key layout. The determinism linter bans
    them in library code; these wrappers are the blessed replacement:
    they snapshot the bindings and sort them with the caller's key
    comparator, so enumeration order is a function of the table's
    contents only.

    Cost: O(n) extra space and an O(n log n) sort per enumeration —
    fine for the result-aggregation tables these are meant for; keep
    hot paths on arrays as before. *)

val bindings : cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list
(** All bindings sorted by key ([cmp]); duplicate keys (from
    [Hashtbl.add]) keep their most-recent-first order stably. *)

val iter : cmp:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit
(** [iter ~cmp f tbl] applies [f] to every binding in ascending key
    order. *)

val fold : cmp:('k -> 'k -> int) -> ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) Hashtbl.t -> 'acc -> 'acc
(** [fold ~cmp f tbl init] folds in ascending key order. *)
