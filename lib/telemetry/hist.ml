(* Log-bucketed histogram with fixed, implementation-independent bucket
   boundaries. A sample v = m * 2^e (frexp, m in [0.5,1)) lands in one
   of 8 linear sub-buckets per octave: relative bucket width 1/16 of
   the octave base, i.e. quantile estimates carry at most ~12.5%
   relative error — the HDR-histogram trade, with the boundaries fixed
   forever by the floating-point format rather than by configuration.

   Everything stored is integral (bucket counts, an Int64
   millionths-quantized sum) or an order statistic (min/max), so
   [merge] is associative and commutative and a fold over forked
   per-domain histograms yields bit-identical state regardless of fork
   or join order — the property test in test_hist.ml pins this. *)

(* Octave range: e_min covers sub-nanosecond latencies (2^-30 ~ 1e-9),
   e_max covers ~8.6e9 (2^33) — beyond that samples land in the
   overflow bucket and quantiles fall back to the tracked max. *)
let e_min = -30
let e_max = 33
let subs = 8
let n_buckets = (e_max - e_min + 1) * subs

type t = {
  counts : int array;  (* positive finite samples, by log bucket *)
  mutable zero : int;  (* samples <= 0 *)
  mutable overflow : int;  (* samples >= 2^(e_max+1) *)
  mutable skipped : int;  (* non-finite samples (NaN, infinities) *)
  mutable total : int;  (* zero + bucketed + overflow *)
  mutable sum_q : int64;  (* sum quantized to millionths *)
  mutable minv : float;  (* +inf when empty *)
  mutable maxv : float;  (* -inf when empty *)
}

let create () =
  {
    counts = Array.make n_buckets 0;
    zero = 0;
    overflow = 0;
    skipped = 0;
    total = 0;
    sum_q = 0L;
    minv = Float.infinity;
    maxv = Float.neg_infinity;
  }

let copy h =
  {
    counts = Array.copy h.counts;
    zero = h.zero;
    overflow = h.overflow;
    skipped = h.skipped;
    total = h.total;
    sum_q = h.sum_q;
    minv = h.minv;
    maxv = h.maxv;
  }

let count h = h.total
let skipped h = h.skipped

(* Quantize to millionths before summing: Int64 addition is associative
   where float addition is not, so the merged sum cannot depend on the
   schedule that filled the forked buffers. *)
let quantize v = Int64.of_float (Float.round (v *. 1e6))
let sum h = Int64.to_float h.sum_q /. 1e6
let min_value h = if h.total = 0 then 0. else h.minv
let max_value h = if h.total = 0 then 0. else h.maxv

let bucket_index v =
  let m, e = Float.frexp v in
  if e < e_min then 0
  else if e > e_max then -1 (* overflow *)
  else ((e - e_min) * subs) + int_of_float ((m -. 0.5) *. 16.)

(* Upper boundary of bucket [i]: exact in binary floating point, so the
   reported quantile edges are stable across platforms. *)
let bucket_upper i =
  let e = e_min + (i / subs) and sub = i mod subs in
  Float.ldexp (0.5 +. (float_of_int (sub + 1) /. 16.)) e

let add h v =
  if not (Float.is_finite v) then h.skipped <- h.skipped + 1
  else begin
    h.total <- h.total + 1;
    h.sum_q <- Int64.add h.sum_q (quantize v);
    if v < h.minv then h.minv <- v;
    if v > h.maxv then h.maxv <- v;
    if v <= 0. then h.zero <- h.zero + 1
    else
      match bucket_index v with
      | -1 -> h.overflow <- h.overflow + 1
      | i -> h.counts.(i) <- h.counts.(i) + 1
  end

let merge_into ~into src =
  for i = 0 to n_buckets - 1 do
    into.counts.(i) <- into.counts.(i) + src.counts.(i)
  done;
  into.zero <- into.zero + src.zero;
  into.overflow <- into.overflow + src.overflow;
  into.skipped <- into.skipped + src.skipped;
  into.total <- into.total + src.total;
  into.sum_q <- Int64.add into.sum_q src.sum_q;
  if src.minv < into.minv then into.minv <- src.minv;
  if src.maxv > into.maxv then into.maxv <- src.maxv

(* Reference equality: the merge-algebra, copy and codec properties
   compare histograms with it. *)
let[@lint.allow "dead-export"] equal a b =
  Array.length a.counts = Array.length b.counts
  && (let same = ref true in
      for i = 0 to n_buckets - 1 do
        if a.counts.(i) <> b.counts.(i) then same := false
      done;
      !same)
  && a.zero = b.zero && a.overflow = b.overflow && a.skipped = b.skipped
  && a.total = b.total
  && Int64.equal a.sum_q b.sum_q
  && Int64.equal (Int64.bits_of_float a.minv) (Int64.bits_of_float b.minv)
  && Int64.equal (Int64.bits_of_float a.maxv) (Int64.bits_of_float b.maxv)

(* Quantile by cumulative bucket walk; the answer is a bucket upper
   boundary (or the exact tracked extremes), never an interpolation, so
   it is a pure function of the integer bucket state. *)
let quantile h q =
  if h.total = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int h.total)) in
      Int.max 1 (Int.min h.total r)
    in
    if rank <= h.zero then 0.
    else begin
      let cum = ref h.zero in
      let result = ref h.maxv in
      (try
         for i = 0 to n_buckets - 1 do
           cum := !cum + h.counts.(i);
           if !cum >= rank then begin
             result := Float.min (bucket_upper i) h.maxv;
             raise Exit
           end
         done
       with Exit -> ());
      !result
    end
  end

type digest = {
  d_count : int;
  d_sum : float;
  d_min : float;
  d_max : float;
  d_p50 : float;
  d_p90 : float;
  d_p99 : float;
  d_p999 : float;
}

let digest h =
  {
    d_count = h.total;
    d_sum = sum h;
    d_min = min_value h;
    d_max = max_value h;
    d_p50 = quantile h 0.5;
    d_p90 = quantile h 0.9;
    d_p99 = quantile h 0.99;
    d_p999 = quantile h 0.999;
  }

(* Sparse non-empty buckets in ascending boundary order. The zero
   bucket reports boundary 0., the overflow bucket +inf. *)
let buckets h =
  let acc = ref [] in
  if h.overflow > 0 then acc := (Float.infinity, h.overflow) :: !acc;
  for i = n_buckets - 1 downto 0 do
    if h.counts.(i) > 0 then acc := (bucket_upper i, h.counts.(i)) :: !acc
  done;
  if h.zero > 0 then acc := (0., h.zero) :: !acc;
  !acc

(* Cumulative (le, count) pairs over the non-empty buckets, ending with
   the (+inf, total) bucket OpenMetrics requires. *)
let cumulative h =
  let cum = ref 0 in
  let steps =
    List.filter_map
      (fun (upper, n) ->
        cum := !cum + n;
        if Float.is_finite upper then Some (upper, !cum) else None)
      (buckets h)
  in
  steps @ [ (Float.infinity, h.total) ]

(* ---- codec ------------------------------------------------------------ *)

(* One-line text codec for snapshot/resume: hex floats and decimal
   integers only, so encode/decode round-trips bit-exactly. *)
let encode h =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "h1 %d %d %d %d %Ld %h %h" h.total h.zero h.overflow
       h.skipped h.sum_q h.minv h.maxv);
  for i = 0 to n_buckets - 1 do
    if h.counts.(i) > 0 then Buffer.add_string b (Printf.sprintf " %d:%d" i h.counts.(i))
  done;
  Buffer.contents b

(* [decode] accepts only state that [add] and [merge_into] can reach:
   non-negative counters, each bucket index at most once, a total that
   is exactly the zero, overflow and bucket counts, and extremes that
   are the empty sentinels when nothing was counted and finite and
   ordered otherwise. A snapshot line that breaks any of these would
   render a non-monotone cumulative histogram. *)
let decode line =
  let ( let* ) o f = Option.bind o f in
  let check b = if b then Some () else None in
  match String.split_on_char ' ' (String.trim line) with
  | "h1" :: total :: zero :: overflow :: skipped :: sum_q :: minv :: maxv :: pairs ->
    let* total = int_of_string_opt total in
    let* zero = int_of_string_opt zero in
    let* overflow = int_of_string_opt overflow in
    let* skipped = int_of_string_opt skipped in
    let* sum_q = Int64.of_string_opt sum_q in
    let* minv = float_of_string_opt minv in
    let* maxv = float_of_string_opt maxv in
    let* () = check (total >= 0 && zero >= 0 && overflow >= 0 && skipped >= 0) in
    let* () = check (zero <= total && overflow <= total - zero) in
    let* () =
      check
        (if total = 0 then
           Int64.equal sum_q 0L
           && Float.equal minv Float.infinity
           && Float.equal maxv Float.neg_infinity
         else Float.is_finite minv && Float.is_finite maxv && minv <= maxv)
    in
    let h = create () in
    h.total <- total;
    h.zero <- zero;
    h.overflow <- overflow;
    h.skipped <- skipped;
    h.sum_q <- sum_q;
    h.minv <- minv;
    h.maxv <- maxv;
    (* Counts left for the buckets; subtracting keeps every step in
       range whatever the line claims. *)
    let left = ref (total - zero - overflow) in
    let ok =
      List.for_all
        (fun pair ->
          match String.index_opt pair ':' with
          | None -> false
          | Some colon -> (
            let idx = String.sub pair 0 colon in
            let n = String.sub pair (colon + 1) (String.length pair - colon - 1) in
            match (int_of_string_opt idx, int_of_string_opt n) with
            | Some i, Some n
              when i >= 0 && i < n_buckets && n > 0 && n <= !left && h.counts.(i) = 0 ->
              h.counts.(i) <- n;
              left := !left - n;
              true
            | _ -> false))
        pairs
    in
    if ok && !left = 0 then Some h else None
  | _ -> None
