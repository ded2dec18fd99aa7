(* Dead-export pass (rule [dead-export]).

   The exports are the definitions under lib/. The roots are every
   definition walked outside lib/ (executables, benchmark, examples,
   tools), lib/'s module initialisers ([let () = ...]), and the
   definitions a module expression outside any definition uses
   opaquely (a functor application or argument, an [include]). An
   export no root reaches through the call graph is reported at its
   definition.

   Which directories are roots is the caller's choice of walked paths;
   the repository's lint run leaves test/ out, so a definition only
   tests reach is dead to the system. It is deleted, or kept with an
   in-file [@lint.allow "dead-export"] and a reason. The waiver
   silences that one definition and does not make it a root: what it
   calls must earn its keep on its own.

   A walk with no root at all (a lib-only run) reports nothing: with
   nothing to call the library, every export would be dead. *)

let rule = "dead-export"

let in_lib file = Config.prefix_matches ~prefix:"lib" file

let run ~config (g : Callgraph.t) : Diagnostic.t list =
  let nodes = g.Callgraph.nodes in
  let has_root =
    Array.exists (fun (n : Callgraph.node) -> not (in_lib n.Callgraph.n_file)) nodes
    || List.exists (fun (file, _) -> not (in_lib file)) g.Callgraph.top_uses
  in
  if not has_root then []
  else begin
    let succ = Array.make (Array.length nodes) [] in
    List.iter
      (fun (e : Callgraph.edge) ->
        succ.(e.Callgraph.e_from) <- e.Callgraph.e_to :: succ.(e.Callgraph.e_from))
      g.Callgraph.edges;
    let live = Array.make (Array.length nodes) false in
    let rec mark id =
      if not live.(id) then begin
        live.(id) <- true;
        List.iter mark succ.(id)
      end
    in
    Array.iter
      (fun (n : Callgraph.node) ->
        if Callgraph.is_entry n || not (in_lib n.Callgraph.n_file) then mark n.Callgraph.n_id)
      nodes;
    List.iter (fun (_, id) -> mark id) g.Callgraph.top_uses;
    Array.to_list nodes
    |> List.filter_map (fun (n : Callgraph.node) ->
           if
             live.(n.Callgraph.n_id)
             || List.exists (String.equal rule) n.Callgraph.n_allows
             || Config.allowed config ~path:n.Callgraph.n_file ~rule
           then None
           else
             let message =
               Printf.sprintf
                 "`%s` is reached from no walked file outside lib/; delete it, or keep it with \
                  [@lint.allow \"dead-export\"] and a reason"
                 n.Callgraph.n_name
             in
             Some
               (Diagnostic.make ~file:n.Callgraph.n_file ~line:n.Callgraph.n_line
                  ~col:n.Callgraph.n_col ~rule ~message))
  end
