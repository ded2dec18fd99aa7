(** Fixed-step Runge-Kutta integration.

    A small classical RK4 integrator over [float array] states — enough
    to solve the truncated population ODE of §5.1 and cross-check its
    closed forms. No adaptivity; callers choose the step count. *)

type derivative = t:float -> y:float array -> float array
(** Right-hand side [dy/dt = f t y]; must return an array of the same
    length as [y] (checked on the first call). *)

val rk4 : f:derivative -> y0:float array -> t0:float -> t1:float -> steps:int -> float array
(** Integrate from [t0] to [t1] in [steps] equal RK4 steps and return
    the final state. [y0] is not mutated. Raises [Invalid_argument] if
    [steps <= 0] or [t1 < t0]. Polls {!Psn_robust.Interrupt.check}
    before each step, so a signal stops a long solve within a step. *)
