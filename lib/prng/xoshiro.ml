type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let of_state (s0, s1, s2, s3) =
  if Int64.equal s0 0L && Int64.equal s1 0L && Int64.equal s2 0L && Int64.equal s3 0L then
    invalid_arg "Xoshiro.of_state: all-zero state";
  { s0; s1; s2; s3 }

let of_seed seed =
  let sm = Splitmix64.create seed in
  of_state (Splitmix64.next_four sm)

(* Test-only, like every dead-export waiver in this file: to be deleted
   with its unit tests (ROADMAP, "The test-only code left in lib/"). *)
let[@lint.allow "dead-export"] copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let next t =
  let result = Int64.add (rotl (Int64.add t.s0 t.s3) 23) t.s0 in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

(* Jump polynomial for xoshiro256, from the reference implementation. *)
let[@lint.allow "dead-export"] jump_table =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let[@lint.allow "dead-export"] jump t =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if not (Int64.equal (Int64.logand word (Int64.shift_left 1L b)) 0L) then begin
          s0 := Int64.logxor !s0 t.s0;
          s1 := Int64.logxor !s1 t.s1;
          s2 := Int64.logxor !s2 t.s2;
          s3 := Int64.logxor !s3 t.s3
        end;
        ignore (next t)
      done)
    jump_table;
  t.s0 <- !s0;
  t.s1 <- !s1;
  t.s2 <- !s2;
  t.s3 <- !s3

let[@lint.allow "dead-export"] split t =
  let child = copy t in
  jump t;
  child
