(* Type-7 position of quantile [q] among [n >= 2] order statistics: the
   lower index and the fraction of the way to the next one. *)
let position n q =
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  (lo, pos -. float_of_int lo)

let lerp lo hi frac = lo +. (frac *. (hi -. lo))

let interpolate sorted q =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let lo, frac = position n q in
    lerp sorted.(lo) sorted.(Int.min (lo + 1) (n - 1)) frac
  end

let check_q q =
  if not (q >= 0. && q <= 1.) then invalid_arg "Quantile: q must be in [0, 1]"

(* ------------------------------------------------------------------ *)
(* Selection kernel                                                   *)

(* Everything below works in place on a float array under the strict
   order of [Float.compare]: NaN below every number, [-0.] tied with
   [0.]. Positions, never pivot values, are passed around, so no float
   is boxed. *)

let[@psn.hot] lt (a : float) b = a < b || (Float.is_nan a && not (Float.is_nan b))

let[@psn.hot] swap (a : float array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

(* Insertion sort of a.(lo..hi), for the short ranges selection ends on. *)
let[@psn.hot] rec sink a lo j =
  if j > lo && lt a.(j) a.(j - 1) then begin
    swap a j (j - 1);
    sink a lo (j - 1)
  end

let[@psn.hot] insertion_sort a lo hi =
  for i = lo + 1 to hi do
    sink a lo i
  done

(* Heapsort of a.(lo..hi): the fallback that keeps the worst case
   O(n log n) when pivots keep landing badly. *)
let[@psn.hot] rec sift a lo root size =
  let l = (2 * root) + 1 in
  if l < size then begin
    let largest = if lt a.(lo + root) a.(lo + l) then l else root in
    let r = l + 1 in
    let largest = if r < size && lt a.(lo + largest) a.(lo + r) then r else largest in
    if largest <> root then begin
      swap a (lo + root) (lo + largest);
      sift a lo largest size
    end
  end

let[@psn.hot] heapsort a lo hi =
  let size = hi - lo + 1 in
  for root = (size / 2) - 1 downto 0 do
    sift a lo root size
  done;
  for last = size - 1 downto 1 do
    swap a lo (lo + last);
    sift a lo 0 last
  done

(* Hoare partition around the pivot parked at [p]. The scans stop on
   keys equal to the pivot, which splits runs of duplicates evenly; the
   pivot itself and the median-of-three's low end are the sentinels. *)
let[@psn.hot] rec scan_up a p i = if lt a.(i) a.(p) then scan_up a p (i + 1) else i
let[@psn.hot] rec scan_down a p j = if lt a.(p) a.(j) then scan_down a p (j - 1) else j

let[@psn.hot] rec partition a p i j =
  let i = scan_up a p (i + 1) in
  let j = scan_down a p (j - 1) in
  if i < j then begin
    swap a i j;
    partition a p i j
  end
  else i

(* Partitions a.(lo..hi) (at least 4 elements) around the median of its
   first, middle and last keys; returns the pivot's final position m,
   with a.(lo..m-1) <= a.(m) <= a.(m+1..hi). *)
let[@psn.hot] split a lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if lt a.(mid) a.(lo) then swap a lo mid;
  if lt a.(hi) a.(lo) then swap a lo hi;
  if lt a.(hi) a.(mid) then swap a mid hi;
  let p = hi - 1 in
  swap a mid p;
  let m = partition a p lo p in
  swap a m p;
  m

(* Introselect: afterwards a.(k) holds the k-th smallest key, with no
   larger key before it and no smaller one after it. After [budget]
   partitions the remaining range is sorted outright. *)
let[@psn.hot] rec select a k lo hi budget =
  if hi - lo < 16 then insertion_sort a lo hi
  else if budget = 0 then heapsort a lo hi
  else begin
    let m = split a lo hi in
    if k < m then select a k lo (m - 1) (budget - 1)
    else if k > m then select a k (m + 1) hi (budget - 1)
  end

(* Position of the smallest key in a.(i..n-1), [best] so far. *)
let[@psn.hot] rec min_index a i n best =
  if i >= n then best else min_index a (i + 1) n (if lt a.(i) a.(best) then i else best)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

(* The two order statistics the interpolation needs: the [lo]-th by
   selection, its successor as the smallest key above it. The result is
   the one [interpolate] gives on the sorted sample. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.quantile: empty sample";
  check_q q;
  if n = 1 then xs.(0)
  else begin
    let a = Array.copy xs in
    let lo, frac = position n q in
    select a lo 0 (n - 1) (2 * log2 n);
    let hi = if lo + 1 < n then min_index a (lo + 2) n (lo + 1) else lo in
    lerp a.(lo) a.(hi) frac
  end

let quantiles_sorted sorted qs =
  if Array.length sorted = 0 then invalid_arg "Quantile.quantiles_sorted: empty sample";
  List.map
    (fun q ->
      check_q q;
      interpolate sorted q)
    qs

let median xs = quantile xs 0.5
