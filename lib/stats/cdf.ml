type t = { sorted : float array }

let of_samples xs =
  if Array.length xs = 0 then invalid_arg "Cdf.of_samples: empty sample";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  { sorted }

let size t = Array.length t.sorted
(* Test-only, like every dead-export waiver in this file: to be deleted
   with its unit tests (ROADMAP, "The test-only code left in lib/"). *)
let[@lint.allow "dead-export"] support t = (t.sorted.(0), t.sorted.(size t - 1))

(* Index of the first element strictly greater than [x]. *)
let[@lint.allow "dead-export"] upper_bound sorted x =
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if sorted.(mid) <= x then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length sorted)

let[@lint.allow "dead-export"] eval t x =
  float_of_int (upper_bound t.sorted x) /. float_of_int (size t)

let inverse t q = Quantile.quantiles_sorted t.sorted [ q ] |> List.hd

let points t =
  let n = size t in
  let rec collect i acc =
    if i < 0 then acc
    else
      let x = t.sorted.(i) in
      (* Keep only the last (highest-probability) point per distinct x. *)
      let acc =
        match acc with
        | (x', _) :: _ when Float.equal x' x -> acc
        | _ -> (x, float_of_int (i + 1) /. float_of_int n) :: acc
      in
      collect (i - 1) acc
  in
  collect (n - 1) []

let[@lint.allow "dead-export"] tabulate t ?(n = 50) () =
  if n < 2 then invalid_arg "Cdf.tabulate: need at least 2 points";
  let lo, hi = support t in
  if Float.equal lo hi then [ (lo, 1.) ]
  else
    List.init n (fun i ->
        let x = lo +. (float_of_int i /. float_of_int (n - 1) *. (hi -. lo)) in
        (x, eval t x))

let[@lint.allow "dead-export"] ks_distance a b =
  (* The supremum of |Fa - Fb| is attained at an observation of either
     sample; scan the merged support. *)
  let worst = ref 0. in
  let check x =
    let d = Float.abs (eval a x -. eval b x) in
    if d > !worst then worst := d
  in
  Array.iter check a.sorted;
  Array.iter check b.sorted;
  !worst
