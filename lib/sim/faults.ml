module Trace = Psn_trace.Trace
module Contact = Psn_trace.Contact

type spec = {
  loss : float;
  crash_rate : float;
  down_time : float;
  jitter : float;
  seed : int64;
}

let none = { loss = 0.; crash_rate = 0.; down_time = 0.; jitter = 0.; seed = 0L }

let validate spec =
  if not (Float.is_finite spec.loss && spec.loss >= 0. && spec.loss < 1.) then
    Error "loss must lie in [0, 1)"
  else if not (Float.is_finite spec.crash_rate && spec.crash_rate >= 0.) then
    Error "crash_rate must be finite and non-negative"
  else if not (Float.is_finite spec.down_time && spec.down_time >= 0.) then
    Error "down_time must be finite and non-negative"
  else if not (Float.is_finite spec.jitter && spec.jitter >= 0. && spec.jitter <= 1.) then
    Error "jitter must lie in [0, 1]"
  else Ok ()

let scale x spec =
  if not (Float.is_finite x && x >= 0.) then invalid_arg "Faults.scale: factor must be >= 0";
  {
    spec with
    loss = Float.min (spec.loss *. x) 0.999999;
    crash_rate = spec.crash_rate *. x;
    jitter = Float.min (spec.jitter *. x) 1.;
  }

let is_null spec =
  Float.equal spec.loss 0.
  && (Float.equal spec.crash_rate 0. || Float.equal spec.down_time 0.)
  && Float.equal spec.jitter 0.

let pp_spec ppf spec =
  Format.fprintf ppf "loss %.3f, %.2f crashes/h x %.0f s down, jitter %.2f (seed %Ld)" spec.loss
    (spec.crash_rate *. 3600.) spec.down_time spec.jitter spec.seed

type plan = {
  spec : spec;
  horizon : float;
  down : (float * float) array array;  (* per node, disjoint, ascending *)
}

(* Decision hashing: one SplitMix64 step per mixed-in word, chained.
   The final state is a well-distributed 64-bit digest of the sequence,
   and [create]/[next] are pure over their inputs, so every verdict is a
   function of (seed, key) alone. *)
let mix h w = Psn_prng.Splitmix64.next (Psn_prng.Splitmix64.create (Int64.logxor h w))
let mix_int h i = mix h (Int64.of_int i)
let mix_float h f = mix h (Int64.bits_of_float f)

(* 53 uniform bits in [0, 1). *)
let unit_of_digest h = Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53

(* Per-node downtime: Poisson crashes, exponential repairs, drawn from a
   node-keyed RNG at compile time. The next crash clock starts at the
   recovery instant, so intervals are disjoint and ascending by
   construction. *)
let node_downtime spec ~horizon node =
  if Float.equal spec.crash_rate 0. || Float.equal spec.down_time 0. then [||]
  else begin
    let rng = Psn_prng.Rng.create ~seed:(mix_int (mix spec.seed 0x646f776eL) node) () in
    let rec go t acc =
      let crash = t +. Psn_prng.Rng.exponential rng ~rate:spec.crash_rate in
      if crash >= horizon then acc
      else
        let recover =
          Float.min horizon (crash +. Psn_prng.Rng.exponential rng ~rate:(1. /. spec.down_time))
        in
        go recover ((crash, recover) :: acc)
    in
    Array.of_list (List.rev (go 0. []))
  end

let compile ~n_nodes ~horizon spec =
  (match validate spec with
  | Error msg -> invalid_arg ("Faults.compile: " ^ msg)
  | Ok () -> ());
  if n_nodes <= 0 then invalid_arg "Faults.compile: need at least one node";
  if not (Float.is_finite horizon && horizon > 0.) then
    invalid_arg "Faults.compile: horizon must be finite and positive";
  { spec; horizon; down = Array.init n_nodes (node_downtime spec ~horizon) }

(* Reference intervals: the degrade tests check every degraded contact
   against them. *)
let[@lint.allow "dead-export"] downtime plan node =
  if node < 0 || node >= Array.length plan.down then
    invalid_arg "Faults.downtime: node out of range";
  Array.to_list plan.down.(node)

(* Subtract a node's down intervals from [intervals] (both ascending). *)
let clip_against intervals downs =
  List.concat_map
    (fun (s, e) ->
      let rec cut s acc = function
        | [] -> if s < e then (s, e) :: acc else acc
        | (d, r) :: rest ->
          if r <= s then cut s acc rest
          else if d >= e then if s < e then (s, e) :: acc else acc
          else begin
            (* the down interval overlaps [s, e) *)
            let acc = if d > s then (s, d) :: acc else acc in
            if r < e then cut r acc rest else acc
          end
      in
      List.rev (cut s [] (Array.to_list downs)))
    intervals

(* Jitter truncation: keyed by the contact's identity so duplicate
   contact records draw identical fractions. *)
let truncate_contact spec (c : Contact.t) =
  if Float.equal spec.jitter 0. then Some (c.Contact.t_start, c.Contact.t_end)
  else begin
    let h =
      mix_float
        (mix_float (mix_int (mix_int (mix spec.seed 0x6a697474L) c.Contact.a) c.Contact.b)
           c.Contact.t_start)
        c.Contact.t_end
    in
    let frac = unit_of_digest h *. spec.jitter in
    let t_end = c.Contact.t_end -. (frac *. Contact.duration c) in
    if t_end > c.Contact.t_start then Some (c.Contact.t_start, t_end) else None
  end

let degrade plan trace =
  if Trace.n_nodes trace <> Array.length plan.down then
    invalid_arg "Faults.degrade: trace population differs from the plan's";
  if Float.equal plan.spec.jitter 0. && Array.for_all (fun d -> Array.length d = 0) plan.down then trace
  else begin
    let surviving = ref [] in
    Trace.iter_contacts trace (fun (c : Contact.t) ->
        match truncate_contact plan.spec c with
        | None -> ()
        | Some (s, e) ->
          clip_against [ (s, e) ] plan.down.(c.Contact.a)
          |> (fun ivs -> clip_against ivs plan.down.(c.Contact.b))
          |> List.iter (fun (t_start, t_end) ->
                 if t_start < t_end then
                   surviving :=
                     Contact.make ~a:c.Contact.a ~b:c.Contact.b ~t_start ~t_end :: !surviving));
    Trace.create ~n_nodes:(Trace.n_nodes trace) ~horizon:(Trace.horizon trace)
      ~kinds:(Trace.kinds trace) (List.rev !surviving)
  end

let transfer_fails plan ~msg ~holder ~peer ~time =
  plan.spec.loss > 0.
  &&
  let h =
    mix_float
      (mix_int (mix_int (mix_int (mix plan.spec.seed 0x6c6f7373L) msg) holder) peer)
      time
  in
  unit_of_digest h < plan.spec.loss
