type t = {
  lo : float;
  hi : float;
  counts : int array;
  underflow : int;
  overflow : int;
}

let create ~lo ~hi ~bins data =
  if not (lo < hi) then invalid_arg "Histogram.create: lo must be < hi";
  if bins < 1 then invalid_arg "Histogram.create: bins must be >= 1";
  let counts = Array.make bins 0 in
  let underflow = ref 0 and overflow = ref 0 in
  let width = (hi -. lo) /. float_of_int bins in
  Seq.iter
    (fun x ->
      if x < lo then incr underflow
      else if x >= hi then incr overflow
      else begin
        let i = Int.min (bins - 1) (int_of_float ((x -. lo) /. width)) in
        counts.(i) <- counts.(i) + 1
      end)
    data;
  { lo; hi; counts; underflow = !underflow; overflow = !overflow }

let counts t = Array.copy t.counts
let bins t = Array.length t.counts
let width t = (t.hi -. t.lo) /. float_of_int (bins t)

let bin_center t i =
  if i < 0 || i >= bins t then invalid_arg "Histogram.bin_center: bin out of range";
  t.lo +. ((float_of_int i +. 0.5) *. width t)

let underflow t = t.underflow
let overflow t = t.overflow

let total t = t.underflow + t.overflow + Array.fold_left ( + ) 0 t.counts
