type action = Error_now | Crash

type rule = Always | On_hit of int | Prob of float

type site = {
  name : string;
  name_hash : int64;  (* precomputed digest of [name] for Prob verdicts *)
  action : action;
  rule : rule;
  hits : int Atomic.t;  (* consumed by On_hit, one per trigger *)
}

type plan = { seed : int64; plan_sites : site list }

exception Injected of { site : string }

let crash_exit_code = 170

(* Same decision-hashing kernel as Faults: one SplitMix64 step per
   mixed-in word, chained, so a verdict is a pure function of the
   mixed sequence. *)
let mix h w = Psn_prng.Splitmix64.next (Psn_prng.Splitmix64.create (Int64.logxor h w))
let mix_int h i = mix h (Int64.of_int i)

let unit_of_digest h = Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

let hash_name name =
  let h = ref 0x73697465L (* "site" *) in
  String.iter (fun c -> h := mix_int !h (Char.code c)) name;
  !h

(* ---- plan compilation ------------------------------------------------ *)

let action_of_string = function
  | "error" -> Ok Error_now
  | "crash" -> Ok Crash
  | other -> Error (Printf.sprintf "unknown action %S (want error|crash)" other)

let rule_of_suffix modifier arg =
  match modifier with
  | '@' -> (
    match int_of_string_opt arg with
    | Some n when n >= 1 -> Ok (On_hit n)
    | Some _ | None -> Error (Printf.sprintf "@%s: hit index must be an integer >= 1" arg))
  | '%' -> (
    match float_of_string_opt arg with
    | Some p when Float.is_finite p && p >= 0. && p <= 1. -> Ok (Prob p)
    | Some _ | None -> Error (Printf.sprintf "%%%s: probability must lie in [0, 1]" arg))
  | _ -> Error "unreachable modifier"

let parse_clause clause =
  let err msg = Error (Printf.sprintf "failpoint clause %S: %s" clause msg) in
  match String.index_opt clause '=' with
  | None -> err "expected site=action"
  | Some i ->
    let name = String.trim (String.sub clause 0 i) in
    let rhs = String.trim (String.sub clause (i + 1) (String.length clause - i - 1)) in
    if String.length name = 0 then err "empty site name"
    else begin
      let rec find_modifier j =
        if j >= String.length rhs then None
        else
          match rhs.[j] with '@' | '%' -> Some j | _ -> find_modifier (j + 1)
      in
      let action_str, rule =
        match find_modifier 0 with
        | None -> (rhs, Ok Always)
        | Some j ->
          ( String.sub rhs 0 j,
            rule_of_suffix rhs.[j] (String.sub rhs (j + 1) (String.length rhs - j - 1)) )
      in
      match (action_of_string action_str, rule) with
      | Error msg, _ | _, Error msg -> err msg
      | Ok action, Ok rule ->
        Ok { name; name_hash = hash_name name; action; rule; hits = Atomic.make 0 }
    end

let parse ?(seed = 0L) spec =
  let clauses =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun c -> not (String.equal c ""))
  in
  if List.is_empty clauses then Error "empty failpoint spec"
  else begin
    let rec build acc = function
      | [] -> Ok { seed; plan_sites = List.rev acc }
      | clause :: rest -> (
        match parse_clause clause with
        | Error _ as e -> e
        | Ok site ->
          if List.exists (fun s -> String.equal s.name site.name) acc then
            Error (Printf.sprintf "failpoint clause %S: duplicate site" clause)
          else build (site :: acc) rest)
    in
    build [] clauses
  end

(* ---- the installed plan ---------------------------------------------- *)

let current : plan option Atomic.t = Atomic.make None

let install plan = Atomic.set current (Some plan)

(* Test hook: resets the process-global plan between tests. *)
let[@lint.allow "dead-export"] uninstall () = Atomic.set current None

(* ---- verdicts -------------------------------------------------------- *)

let fires plan site ~key =
  match site.rule with
  | Always -> true
  | On_hit n -> Atomic.fetch_and_add site.hits 1 = n - 1
  | Prob p -> unit_of_digest (mix (mix plan.seed site.name_hash) key) < p

let act site =
  match site.action with
  | Error_now ->
    Flight.note "failpoint.trip" [ ("site", site.name); ("action", "error") ];
    raise (Injected { site = site.name })
  | Crash ->
    (* A faithful crash: no at_exit, no channel flushing — the process
       disappears exactly as a SIGKILL would leave it. The one
       exception is the flight recorder, dumped here by hand: its whole
       purpose is to survive exactly this death. *)
    Flight.note "failpoint.trip" [ ("site", site.name); ("action", "crash") ];
    Flight.dump ~reason:(Printf.sprintf "failpoint crash at %s" site.name) ();
    Unix._exit crash_exit_code

let trigger ?(key = 0L) name =
  match Atomic.get current with
  | None -> ()
  | Some plan -> (
    match List.find_opt (fun s -> String.equal s.name name) plan.plan_sites with
    | None -> ()
    | Some site -> if fires plan site ~key then act site)

let describe = function
  | Injected { site } -> Printf.sprintf "injected permanent failure at %s" site
  | e -> Printexc.to_string e
