open Psn_prng

type classes = { n : int; frac_high : float; rate_high : float; rate_low : float }

let check c =
  if c.n < 4 then invalid_arg "Inhomogeneous: n must be >= 4";
  if not (c.frac_high > 0. && c.frac_high < 1.) then
    invalid_arg "Inhomogeneous: frac_high must be in (0, 1)";
  if not (c.rate_low > 0. && c.rate_low <= c.rate_high) then
    invalid_arg "Inhomogeneous: need 0 < rate_low <= rate_high"

type quadrant = In_in | In_out | Out_in | Out_out

let pp_quadrant ppf q =
  Format.pp_print_string ppf
    (match q with In_in -> "in-in" | In_out -> "in-out" | Out_in -> "out-in" | Out_out -> "out-out")

let all_quadrants = [ In_in; In_out; Out_in; Out_out ]

type prediction = { t1_small : bool; te_small : bool }

let predict = function
  | In_in -> { t1_small = true; te_small = true }
  | In_out -> { t1_small = true; te_small = false }
  | Out_in -> { t1_small = false; te_small = true }
  | Out_out -> { t1_small = false; te_small = false }

type quadrant_stats = {
  quadrant : quadrant;
  mean_t1 : float;
  sd_t1 : float;
  mean_te : float;
  sd_te : float;
  deliveries : int;
  explosions : int;
  messages : int;
}

(* Node layout: indices [0, n_high) are 'in' nodes, the rest 'out'. *)
let n_high c = Int.max 1 (int_of_float (Float.round (c.frac_high *. float_of_int c.n)))

let rate_of c i = if i < n_high c then c.rate_high else c.rate_low

(* One tracked message in the heterogeneous jump process.

   Contacts are symmetric and mass-action: pair (i, j) meets at rate
   λ_i λ_j / Σλ, so a node's total contact rate is ≈ its own λ — the
   same physics as the trace generator and the reason a low-rate
   destination starves (the paper's TE mechanism). On contact both
   directions exchange: S_i += old S_j and S_j += old S_i. *)
let track c ~rng ~src ~dst ~n_explosion ~t_end =
  let n = c.n in
  let states = Array.make n 0. in
  states.(src) <- 1.;
  let rates = Array.init n (fun i -> rate_of c i) in
  let rate_sum = Array.fold_left ( +. ) 0. rates in
  let rate_sq = Array.fold_left (fun acc r -> acc +. (r *. r)) 0. rates in
  (* Σ_{i<j} λ_i λ_j / Σλ *)
  let total_rate = ((rate_sum *. rate_sum) -. rate_sq) /. (2. *. rate_sum) in
  let t1 = ref None and tn = ref None in
  let received = ref 0. in
  let time = ref 0. in
  while Option.is_none !tn && !time < t_end do
    let t' = !time +. Rng.exponential rng ~rate:total_rate in
    time := t';
    if t' < t_end then begin
      (* Sample an unordered pair with probability ∝ λ_i λ_j. *)
      let i = Rng.choice_weighted rng ~weights:rates in
      let rec pick_peer () =
        let j = Rng.choice_weighted rng ~weights:rates in
        if j = i then pick_peer () else j
      in
      let j = pick_peer () in
      (* Mirror the measurement's k-truncation: the enumerator retains
         at most n_explosion paths per node, so a single contact can
         deliver at most that many. Without the cap every late contact
         dumps e^{λt} paths and TE degenerates to zero everywhere. *)
      let cap = float_of_int n_explosion in
      let si = Float.min cap states.(i) and sj = Float.min cap states.(j) in
      states.(i) <- Float.min cap (si +. sj);
      states.(j) <- Float.min cap (sj +. si);
      let delivered = if i = dst then sj else if j = dst then si else 0. in
      if delivered > 0. then begin
        received := !received +. delivered;
        if Option.is_none !t1 then t1 := Some t';
        if !received >= float_of_int n_explosion then tn := Some t';
        (* First preference: paths through a carrier that has met the
           destination may not be delivered again — consume them. *)
        let carrier = if i = dst then j else i in
        states.(carrier) <- 0.
      end
    end
  done;
  (!t1, !tn)

let pick_node c rng ~high ~avoid =
  let nh = n_high c in
  let lo, hi = if high then (0, nh - 1) else (nh, c.n - 1) in
  let rec draw () =
    let v = Rng.int_in_range rng ~lo ~hi in
    match avoid with Some a when a = v -> draw () | _ -> v
  in
  draw ()

let simulate c ~rng ~messages_per_quadrant ~n_explosion ~t_end =
  check c;
  if messages_per_quadrant <= 0 then invalid_arg "Inhomogeneous.simulate: need messages > 0";
  if n_high c >= c.n then invalid_arg "Inhomogeneous.simulate: no low-rate nodes";
  if n_high c < 2 || c.n - n_high c < 2 then
    invalid_arg "Inhomogeneous.simulate: each class needs at least two nodes";
  let stats_for quadrant =
    let src_high, dst_high =
      match quadrant with
      | In_in -> (true, true)
      | In_out -> (true, false)
      | Out_in -> (false, true)
      | Out_out -> (false, false)
    in
    let t1s = Psn_stats.Summary.create () and tes = Psn_stats.Summary.create () in
    for _ = 1 to messages_per_quadrant do
      let src = pick_node c rng ~high:src_high ~avoid:None in
      let dst = pick_node c rng ~high:dst_high ~avoid:(Some src) in
      match track c ~rng ~src ~dst ~n_explosion ~t_end with
      | None, _ -> ()
      | Some t1, tn ->
        Psn_stats.Summary.add t1s t1;
        (match tn with Some t -> Psn_stats.Summary.add tes (t -. t1) | None -> ())
    done;
    let sd s = if Psn_stats.Summary.count s < 2 then 0. else Psn_stats.Summary.stddev s in
    {
      quadrant;
      mean_t1 = Psn_stats.Summary.mean t1s;
      sd_t1 = sd t1s;
      mean_te = Psn_stats.Summary.mean tes;
      sd_te = sd tes;
      deliveries = Psn_stats.Summary.count t1s;
      explosions = Psn_stats.Summary.count tes;
      messages = messages_per_quadrant;
    }
  in
  List.map stats_for all_quadrants
