(* Hot-path allocation pass (rule [hot-path-alloc]).

   Functions annotated [@psn.hot] — engine drain kernels, the
   enumeration bitset primitives — promise to run allocation-free.
   The promise is transitive: a helper that conses three modules away
   still costs the hot caller, so the pass computes, over the call
   graph, which definitions can reach an allocation, and reports:

   - every direct allocation inside a hot function, at the
     allocation site;
   - every outgoing call edge of a hot function whose callee can
     reach an allocation, at the call site, with the witness chain
     down to the allocation in the message.

   Allocations tracked: closures, anonymous or named local [let f x =
   ...] alike (only a structure-level function is free to reference),
   list conses and appends, tuples, records, arrays, boxed
   constructors, lazy blocks, string building, a small table of
   known-allocating stdlib entry points, and polymorphic
   compare/min/max (not an allocation, but never wanted on a hot
   path either).

   Suppression semantics, per the rule's rationale: [@lint.allow
   "hot-path-alloc"] at the allocation site sanctions that site for
   every hot caller (it stops propagation); the same attribute at a
   call site sanctions that one edge. *)

let suppressed_alloc ~config ~file (a : Callgraph.alloc) =
  List.exists (String.equal "hot-path-alloc") a.Callgraph.a_allows
  || Config.allowed config ~path:file ~rule:"hot-path-alloc"

let suppressed_edge (e : Callgraph.edge) =
  List.exists (String.equal "hot-path-alloc") e.Callgraph.e_allows

(* Key 0 of {!Callgraph.witnesses}: the node can reach an unsanctioned
   allocation, seeded with "what (file:line)" of its first one. *)
let propagate ~config (g : Callgraph.t) =
  Callgraph.witnesses g
    ~seeds:(fun n ->
      match
        List.find_opt
          (fun a -> not (suppressed_alloc ~config ~file:n.Callgraph.n_file a))
          n.Callgraph.n_allocs
      with
      | Some a ->
        [
          ( 0,
            Printf.sprintf "%s (%s:%d)" a.Callgraph.a_what n.Callgraph.n_file
              (Callgraph.loc_line a.Callgraph.a_loc) );
        ]
      | None -> [])
    ~blocked:(fun e _ -> suppressed_edge e)

let run ~config (g : Callgraph.t) : Diagnostic.t list =
  let reach = propagate ~config g in
  let direct =
    Array.to_list g.Callgraph.nodes
    |> List.concat_map (fun (n : Callgraph.node) ->
           if not n.Callgraph.n_hot then []
           else
             List.filter_map
               (fun (a : Callgraph.alloc) ->
                 if suppressed_alloc ~config ~file:n.Callgraph.n_file a then None
                 else
                   let message =
                     Printf.sprintf
                       "%s inside [@psn.hot] %s; hoist it out of the kernel or suppress this \
                        site with a justification"
                       a.Callgraph.a_what n.Callgraph.n_name
                   in
                   Some (Diagnostic.of_location a.Callgraph.a_loc ~rule:"hot-path-alloc" ~message))
               n.Callgraph.n_allocs)
  in
  let transitive =
    List.filter_map
      (fun (e : Callgraph.edge) ->
        let caller = g.Callgraph.nodes.(e.Callgraph.e_from) in
        if
          (not caller.Callgraph.n_hot)
          || suppressed_edge e
          || Config.allowed config ~path:caller.Callgraph.n_file ~rule:"hot-path-alloc"
          || Callgraph.Imap.is_empty reach.(e.Callgraph.e_to)
        then None
        else
          let message =
            Printf.sprintf
              "[@psn.hot] %s calls into an allocating path: %s; make the callee \
               allocation-free or sanction this edge with a justification"
              caller.Callgraph.n_name
              (Callgraph.chain g reach ~seed:Option.some e.Callgraph.e_to 0)
          in
          Some (Diagnostic.of_location e.Callgraph.e_loc ~rule:"hot-path-alloc" ~message))
      g.Callgraph.edges
  in
  direct @ transitive
