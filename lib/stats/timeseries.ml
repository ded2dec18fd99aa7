type t = { t0 : float; bin : float; counts : int array }

let bin_events ~t0 ~t1 ~bin events =
  if not (t0 < t1) then invalid_arg "Timeseries.bin_events: t0 must be < t1";
  if not (bin > 0.) then invalid_arg "Timeseries.bin_events: bin must be positive";
  let nbins = int_of_float (Float.ceil ((t1 -. t0) /. bin)) in
  let counts = Array.make nbins 0 in
  Seq.iter
    (fun time ->
      if time >= t0 && time < t1 then begin
        let i = Int.min (nbins - 1) (int_of_float ((time -. t0) /. bin)) in
        counts.(i) <- counts.(i) + 1
      end)
    events;
  { t0; bin; counts }

let counts t = Array.copy t.counts

let cumulative t =
  let acc = ref 0 in
  Array.mapi
    (fun i c ->
      acc := !acc + c;
      (t.t0 +. (float_of_int (i + 1) *. t.bin), !acc))
    t.counts

let mean_rate t =
  let events = Array.fold_left ( + ) 0 t.counts in
  float_of_int events /. (float_of_int (Array.length t.counts) *. t.bin)

let stability t =
  if Array.length t.counts = 0 then Float.nan
  else begin
    let s = Summary.of_array (Array.map float_of_int t.counts) in
    let m = Summary.mean s in
    if Float.equal m 0. then Float.nan else Summary.stddev s /. m
  end
