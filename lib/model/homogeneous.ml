type params = { n : int; lambda : float }

let check p =
  if p.n < 2 then invalid_arg "Homogeneous: n must be >= 2";
  if not (p.lambda > 0.) then invalid_arg "Homogeneous: lambda must be positive"

let initial_density p ~k_max =
  check p;
  if k_max < 1 then invalid_arg "Homogeneous.initial_density: k_max must be >= 1";
  let u = Array.make (k_max + 1) 0. in
  let one_over_n = 1. /. float_of_int p.n in
  u.(0) <- 1. -. one_over_n;
  u.(1) <- one_over_n;
  u

(* du_k/dt = lambda * (sum_{i=0..k} u_i u_{k-i} - u_k). The convolution
   is O(K^2) per evaluation; K stays small (hundreds) in practice. *)
let derivative lambda ~t:_ ~y =
  let k_max = Array.length y - 1 in
  Array.init (k_max + 1) (fun k ->
      let conv = ref 0. in
      for i = 0 to k do
        conv := !conv +. (y.(i) *. y.(k - i))
      done;
      lambda *. (!conv -. y.(k)))

let density_at p ~k_max ~t =
  check p;
  let y0 = initial_density p ~k_max in
  if Float.equal t 0. then y0 else Ode.rk4 ~f:(derivative p.lambda) ~y0 ~t0:0. ~t1:t ~steps:1000


let mean_of_density u =
  let acc = ref 0. in
  Array.iteri (fun k uk -> acc := !acc +. (float_of_int k *. uk)) u;
  !acc

let phi0 p x =
  (* phi_x(0) = u_0(0) + x * u_1(0) with the single-source initial
     condition. *)
  let one_over_n = 1. /. float_of_int p.n in
  1. -. one_over_n +. (x *. one_over_n)

let blowup_time p ~x =
  check p;
  let f0 = phi0 p x in
  if f0 <= 1. then None else Some (1. /. p.lambda *. Float.log (f0 /. (f0 -. 1.)))

let generating_function p ~x ~t =
  check p;
  if t < 0. then invalid_arg "Homogeneous.generating_function: negative time";
  let f0 = phi0 p x in
  let e = Float.exp (p.lambda *. t) in
  if f0 < 1. then (* eq. (2) *) f0 /. (f0 +. ((1. -. f0) *. e))
  else if Float.equal f0 1. then 1.
  else begin
    (* eq. (3), diverging at the blow-up time. *)
    match blowup_time p ~x with
    | Some tc when t >= tc -> Float.infinity
    | _ -> f0 /. (f0 -. ((f0 -. 1.) *. e))
  end

let mean_s0 p = 1. /. float_of_int p.n

(* E[S(0)^2] = 1/N (S(0) is an indicator), so V[S(0)] = 1/N - 1/N^2. *)
let second_moment_s0 p = 1. /. float_of_int p.n

let mean_paths p ~t =
  check p;
  mean_s0 p *. Float.exp (p.lambda *. t)

let second_moment p ~t =
  check p;
  let e = Float.exp (p.lambda *. t) in
  (second_moment_s0 p +. (2. *. (e -. 1.) *. mean_s0 p *. mean_s0 p)) *. e

(* The paper prints V[S(t)] = V[S(0)] e^{lt} + E[S(0)](e^{2lt} - e^{lt}),
   but expanding its own (correct) second-moment expression gives
   E[S(0)]^2 as the coefficient of the last term; the printed form is a
   typo (it disagrees with E[S^2] - E[S]^2 for any E[S(0)] != 1). We
   implement the self-consistent form. *)
let variance p ~t =
  check p;
  let e = Float.exp (p.lambda *. t) in
  let m0 = mean_s0 p in
  let v0 = second_moment_s0 p -. (m0 *. m0) in
  (v0 *. e) +. (m0 *. m0 *. ((e *. e) -. e))

let frac_reached p ~t = 1. -. generating_function p ~x:0. ~t

let first_path_time p =
  check p;
  Float.log (float_of_int p.n) /. p.lambda
