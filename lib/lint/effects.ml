(* Interprocedural effect-taint propagation over the call graph.

   Seeding: a definition whose body reads an ambient source
   (Random.*, the wall clock, Hashtbl iteration order, the
   polymorphic hash, process environment) is tainted with that
   source's kind — unless its file is declared a [boundary] for the
   kind in lint.toml, in which case the effect is absorbed there and
   never propagates (that is what makes lib/telemetry/clock.ml the
   one sanctioned clock).

   Propagation: taint flows caller-ward along edges until fixpoint.
   An in-file [@lint.allow "wall-clock"] on the source suppresses the
   per-file syntactic finding but does NOT stop taint — that
   asymmetry is the whole point of this pass: a suppression is a
   local waiver, a boundary is an architectural decision.

   Reporting: every call edge into a tainted definition is a finding
   in the caller, unless the caller's file is itself a boundary for
   the kind, the site carries [@lint.allow "effect-taint"], or the
   caller's path is allowlisted. Each witness chain is rendered into
   the message so the reader sees the path down to the raw source.

   Determinism: the witnesses come from {!Callgraph.witnesses}, keyed
   by the kind's index in Rules.taint_kinds: edges are swept in their
   sorted order and the first witness for a (node, kind) pair wins, so
   messages are stable across runs. *)

let kinds = Array.of_list Rules.taint_kinds

let key_of kind = Option.get (List.find_index (String.equal kind) Rules.taint_kinds)

let run ~config (g : Callgraph.t) : Diagnostic.t list =
  let boundary (n : Callgraph.node) key =
    Config.boundary config ~path:n.Callgraph.n_file ~kind:kinds.(key)
  in
  let taint =
    Callgraph.witnesses g
      ~seeds:(fun n ->
        List.filter_map
          (fun (s : Callgraph.source) ->
            let key = key_of s.Callgraph.s_kind in
            if boundary n key then None else Some (key, s.Callgraph.s_what))
          n.Callgraph.n_sources)
      ~blocked:(fun e key -> boundary g.Callgraph.nodes.(e.Callgraph.e_from) key)
  in
  List.concat_map
    (fun (e : Callgraph.edge) ->
      let caller = g.Callgraph.nodes.(e.Callgraph.e_from) in
      if
        List.exists (String.equal "effect-taint") e.Callgraph.e_allows
        || Config.allowed config ~path:caller.Callgraph.n_file ~rule:"effect-taint"
      then []
      else
        Callgraph.Imap.bindings taint.(e.Callgraph.e_to)
        |> List.filter_map (fun (key, _) ->
               if boundary caller key then None
               else
                 let message =
                   Printf.sprintf
                     "call reaches %s through %s; absorb the effect behind a [boundary] in \
                      lint.toml or thread it explicitly"
                     kinds.(key)
                     (Callgraph.chain g taint ~seed:Option.some e.Callgraph.e_to key)
                 in
                 Some (Diagnostic.of_location e.Callgraph.e_loc ~rule:"effect-taint" ~message)))
    g.Callgraph.edges
