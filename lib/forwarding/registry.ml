type entry = {
  name : string;
  label : string;
  online : bool;
  factory : Psn_sim.Algorithm.factory;
}

let paper_six =
  [
    { name = "epidemic"; label = "Epidemic"; online = true; factory = Epidemic.factory };
    { name = "fresh"; label = "FRESH"; online = true; factory = Fresh.factory };
    { name = "greedy"; label = "Greedy"; online = true; factory = Greedy.factory };
    {
      name = "greedy-total";
      label = "Greedy Total";
      online = false;
      factory = Greedy_total.factory;
    };
    {
      name = "greedy-online";
      label = "Greedy Online";
      online = true;
      factory = Greedy_online.factory;
    };
    {
      name = "dynamic-programming";
      label = "Dynamic Programming";
      online = false;
      factory = Dynprog.factory;
    };
  ]

let extensions =
  [
    { name = "direct"; label = "Direct"; online = true; factory = Direct.factory };
    {
      name = "random";
      label = "Random(p=0.5)";
      online = true;
      factory = Randomized.factory ();
    };
    {
      name = "spray-wait";
      label = "Spray&Wait(L=8)";
      online = true;
      factory = Spray_wait.factory ();
    };
    { name = "prophet"; label = "PRoPHET"; online = true; factory = Prophet.factory () };
    { name = "two-hop"; label = "Two-Hop"; online = true; factory = Two_hop.factory };
    {
      name = "delegation";
      label = "Delegation(rate)";
      online = true;
      factory = Delegation.factory ();
    };
    {
      name = "delegation-dest";
      label = "Delegation(dest)";
      online = true;
      factory = Delegation.factory ~quality:Delegation.Destination_frequency ();
    };
    {
      name = "bubble-rap";
      label = "BubbleRap";
      online = false;
      factory = Bubble_rap.factory ();
    };
  ]

let all = paper_six @ extensions
let online = List.filter (fun e -> e.online) all

let find name =
  match List.find_opt (fun e -> String.equal e.name name) all with
  | Some e -> Ok e
  | None ->
    let names = List.map (fun e -> e.name) all |> String.concat ", " in
    Error (Printf.sprintf "unknown algorithm %S (expected one of: %s)" name names)
