type t = {
  algorithm : string;
  messages : int;
  delivered : int;
  success_rate : float;
  mean_delay : float;
  median_delay : float;
  copies : int;
  attempts : int;
}

let delays (outcome : Engine.outcome) =
  let out =
    Array.to_list outcome.Engine.records
    |> List.filter_map Engine.delay
    |> Array.of_list
  in
  Array.sort Float.compare out;
  out

(* One pass over the records: delays packed into a float array (no
   option or list per record), their sum in record order, and the
   counters. *)
let of_records algorithm (records : Engine.record array) =
  let messages = Array.length records in
  let delays = Array.create_float messages in
  let delivered = ref 0 and sum = ref 0. and copies = ref 0 and attempts = ref 0 in
  for i = 0 to messages - 1 do
    let r = records.(i) in
    copies := !copies + r.Engine.copies;
    attempts := !attempts + r.Engine.attempts;
    match r.Engine.delivered with
    | None -> ()
    | Some t ->
      let d = t -. r.Engine.message.Message.t_create in
      delays.(!delivered) <- d;
      sum := !sum +. d;
      incr delivered
  done;
  let delivered = !delivered in
  let mean_delay, median_delay =
    if delivered = 0 then (Float.nan, Float.nan)
    else
      ( !sum /. float_of_int delivered,
        Psn_stats.Quantile.median (Array.sub delays 0 delivered) )
  in
  {
    algorithm;
    messages;
    delivered;
    success_rate = (if messages = 0 then 0. else float_of_int delivered /. float_of_int messages);
    mean_delay;
    median_delay;
    copies = !copies;
    attempts = !attempts;
  }

(* Attempted transfers per successful transmission — 1.0 in a fault-free
   run, rising with injected loss. [nan] when nothing was transmitted. *)
let overhead t =
  if t.copies = 0 then Float.nan else float_of_int t.attempts /. float_of_int t.copies

let of_outcome (outcome : Engine.outcome) =
  of_records outcome.Engine.algorithm outcome.Engine.records

(* Multi-run aggregation concatenates the runs' records and recomputes
   every statistic over the pooled sample — so [median_delay] is the
   true pooled median, not a delivery-weighted mean of per-run medians
   (which systematically misstates skewed delay distributions). *)
let pool = function
  | [] -> invalid_arg "Metrics.pool: empty list"
  | [ outcome ] -> of_outcome outcome
  | first :: _ as outcomes ->
    List.iter
      (fun (o : Engine.outcome) ->
        if not (String.equal o.Engine.algorithm first.Engine.algorithm) then
          invalid_arg "Metrics.pool: mixed algorithms")
      outcomes;
    of_records first.Engine.algorithm
      (Array.concat (List.map (fun (o : Engine.outcome) -> o.Engine.records) outcomes))

(* The determinism contract is "same bits", not numeric equality:
   comparing the IEEE payloads keeps NaN delays (no deliveries) equal
   to themselves and distinguishes -0. from 0. Reference equality: the
   --jobs × --chunk bit-identity tests compare results with it. *)
let[@lint.allow "dead-export"] float_identical a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let[@lint.allow "dead-export"] equal a b =
  String.equal a.algorithm b.algorithm
  && a.messages = b.messages && a.delivered = b.delivered
  && float_identical a.success_rate b.success_rate
  && float_identical a.mean_delay b.mean_delay
  && float_identical a.median_delay b.median_delay
  && a.copies = b.copies && a.attempts = b.attempts

(* Grouping is keyed through an explicit comparator, not a polymorphic
   [Hashtbl]: hashing caller-supplied keys would mis-handle any key
   that is not reflexively equal under generic equality — a NaN-bearing
   key never equals itself, so every record carrying one silently
   spawned its own duplicate group. [cmp] decides membership
   ([cmp a b = 0]) and must be total on the classifier's range (e.g.
   [Float.compare], which grounds NaN). Group counts are small (Fig. 13
   has four), so a linear scan in first-seen order is plenty. *)
let grouped (outcome : Engine.outcome) ~cmp ~classify =
  let groups = ref [] in
  Array.iter
    (fun (r : Engine.record) ->
      let key = classify r.Engine.message in
      match List.find_opt (fun (k, _) -> cmp k key = 0) !groups with
      | Some (_, rs) -> rs := r :: !rs
      | None -> groups := (key, ref [ r ]) :: !groups)
    outcome.Engine.records;
  List.rev_map
    (fun (key, rs) ->
      let records = Array.of_list (List.rev !rs) in
      (key, of_records outcome.Engine.algorithm records))
    !groups
