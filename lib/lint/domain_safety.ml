(* Domain-safety pass (rule [domain-race]).

   A top-level binding whose right-hand side creates mutable state —
   a ref, a hash table, a buffer, a queue or stack, bytes or an array —
   is shared by every domain that can reach it. The engine's contract
   is that tasks fanned out by [Parallel.map*] touch only per-domain
   state: the [~env] scratch handed to [map_env]/[map_result],
   atomics, or bindings whose per-domain ownership discipline is
   declared in lint.toml's [ownership] table ([Atomic.make] bindings
   never register as mutable in the first place).

   The pass marks every definition that can reach an unsanctioned
   top-level mutable, then inspects each [Parallel.map*] site: the
   roots are the resolved references inside the task and [~env]
   arguments (when an argument mentions a local value the resolver
   cannot see into, the enclosing definition conservatively stands in
   as a root). A root that reaches a mutable is a finding at the
   fan-out site — the one place the race actually starts — with the
   witness chain in the message.

   The reachability is {!Callgraph.witnesses} keyed by the mutable's
   node id: sorted edges, first witness wins. *)

let run ~config (g : Callgraph.t) : Diagnostic.t list =
  let reach =
    Callgraph.witnesses g
      ~seeds:(fun (n : Callgraph.node) ->
        match n.Callgraph.n_mutable with
        | Some _ when not (Config.owned config ~path:n.Callgraph.n_file ~name:n.Callgraph.n_local)
          ->
          [ (n.Callgraph.n_id, ()) ]
        | _ -> [])
      ~blocked:(fun _ _ -> false)
  in
  List.concat_map
    (fun (s : Callgraph.rsite) ->
      let site_node = g.Callgraph.nodes.(s.Callgraph.r_node) in
      if
        List.exists (String.equal "domain-race") s.Callgraph.r_allows
        || Config.allowed config ~path:site_node.Callgraph.n_file ~rule:"domain-race"
      then []
      else
        let roots =
          if s.Callgraph.r_fallback then
            List.sort_uniq Int.compare (s.Callgraph.r_node :: s.Callgraph.r_roots)
          else s.Callgraph.r_roots
        in
        (* One finding per distinct mutable reached, not per root: a
           site where both the task and the env reach the same table
           is one race, not two. The first root in id order wins. *)
        let reached =
          List.fold_left
            (fun acc root ->
              Callgraph.Imap.fold
                (fun target _ acc ->
                  if Callgraph.Imap.mem target acc then acc else Callgraph.Imap.add target root acc)
                reach.(root) acc)
            Callgraph.Imap.empty roots
        in
        Callgraph.Imap.bindings reached
        |> List.map (fun (target, root) ->
               let m = g.Callgraph.nodes.(target) in
               let kind = Option.value ~default:"mutable" m.Callgraph.n_mutable in
               let message =
                 Printf.sprintf
                   "task passed to Parallel.%s reaches shared top-level %s `%s` (%s:%d) through \
                    %s; hand each domain its own state via ~env, use Atomic, or declare \
                    per-domain ownership in lint.toml's [ownership] table"
                   s.Callgraph.r_fn kind m.Callgraph.n_name m.Callgraph.n_file
                   m.Callgraph.n_line
                   (Callgraph.chain g reach ~seed:(fun () -> None) root target)
               in
               Diagnostic.of_location s.Callgraph.r_loc ~rule:"domain-race" ~message))
    g.Callgraph.sites
