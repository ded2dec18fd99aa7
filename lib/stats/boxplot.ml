type t = {
  q1 : float;
  median : float;
  q3 : float;
  whisker_lo : float;
  whisker_hi : float;
  outliers : float array;
  count : int;
}

let of_samples xs =
  if Array.length xs = 0 then invalid_arg "Boxplot.of_samples: empty sample";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let q1, median, q3 =
    match Quantile.quantiles_sorted sorted [ 0.25; 0.5; 0.75 ] with
    | [ a; b; c ] -> (a, b, c)
    | _ -> assert false
  in
  let iqr = q3 -. q1 in
  let fence_lo = q1 -. (1.5 *. iqr) and fence_hi = q3 +. (1.5 *. iqr) in
  let inside = Array.to_list sorted |> List.filter (fun x -> x >= fence_lo && x <= fence_hi) in
  let whisker_lo, whisker_hi =
    match inside with
    | [] -> (median, median)  (* pathological: all points are outliers of each other *)
    | first :: _ ->
      let rec last = function [ x ] -> x | _ :: rest -> last rest | [] -> assert false in
      (first, last inside)
  in
  let outliers =
    Array.of_list (Array.to_list sorted |> List.filter (fun x -> x < fence_lo || x > fence_hi))
  in
  { q1; median; q3; whisker_lo; whisker_hi; outliers; count = Array.length xs }

let iqr t = t.q3 -. t.q1
