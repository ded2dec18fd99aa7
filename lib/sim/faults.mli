(** Deterministic fault injection for the forwarding simulator.

    The paper's robustness thesis — path explosion makes opportunistic
    forwarding insensitive to individual failures — is only testable if
    failures exist. This module supplies them as a {e compiled plan}:
    every fault decision is a pure function of the plan's seed and the
    identity of the thing failing, never of scheduling order, so faulted
    runs keep the {!Parallel} bit-identical determinism contract
    ([--jobs N] cannot change any result).

    Three composable fault channels:

    - {b transfer loss}: each transfer the engine would perform (an
      algorithm-approved relay copy or a delivery transmission) fails
      with probability [loss]. The decision is keyed by
      [(message, holder, peer, time)], so a retry across a later contact
      draws a fresh, independent verdict while replays of the same
      instant are stable.
    - {b node downtime}: each node crashes as a Poisson process of rate
      [crash_rate] and stays down for an exponential duration of mean
      [down_time]; contacts touching a down node are suppressed, or
      truncated to the sub-intervals where both endpoints are up. A
      node's buffer survives its crashes (reboot, not wipe): copies held
      before going down are held again on recovery.
    - {b contact truncation jitter}: each surviving contact is shortened
      at its end by a uniform fraction of its duration drawn from
      [\[0, jitter\]], keyed by the contact's identity — modelling
      scan-granularity and link-quality losses at contact edges.

    Downtime and jitter act on the {e contact set} ({!degrade}), which
    is how they also reach the path layer: enumerating over the degraded
    trace measures how many of the paper's exploded paths survive the
    faults. Transfer loss acts at {!transfer_fails} inside the engine. *)

type spec = {
  loss : float;  (** Per-transfer failure probability, in [\[0, 1)]. *)
  crash_rate : float;
      (** Per-node crash intensity in crashes per second, [>= 0]. *)
  down_time : float;
      (** Mean downtime per crash, seconds, [>= 0]. Zero disables
          downtime even when [crash_rate] is positive. *)
  jitter : float;
      (** Maximum fraction of a contact's duration truncated from its
          end, in [\[0, 1\]]. *)
  seed : int64;  (** Root of every fault decision in the plan. *)
}

val none : spec
(** All channels off ([loss = 0], [crash_rate = 0], [down_time = 0],
    [jitter = 0], seed 0). *)

val scale : float -> spec -> spec
(** [scale x spec] multiplies [loss], [crash_rate] and [jitter] by [x]
    (clamping [loss] and [jitter] into their domains) and keeps
    [down_time] and [seed] — one knob for intensity sweeps. Requires
    [x >= 0]. *)

val validate : spec -> (unit, string) result

val is_null : spec -> bool
(** [true] when the spec can produce no fault at all. *)

val pp_spec : Format.formatter -> spec -> unit

type plan
(** A compiled plan: the spec plus per-node downtime intervals, fixed at
    compile time. Immutable — safe to share across domains. *)

val compile : n_nodes:int -> horizon:float -> spec -> plan
(** Compile [spec] for a population of [n_nodes] nodes observed over
    [\[0, horizon)]. Raises [Invalid_argument] if the spec does not
    {!validate} or the dimensions are non-positive. *)

val downtime : plan -> Psn_trace.Node.id -> (float * float) list
(** The node's down intervals, disjoint and ascending, clipped to the
    horizon. Raises [Invalid_argument] on an out-of-range node. *)

val degrade : plan -> Psn_trace.Trace.t -> Psn_trace.Trace.t
(** Apply the contact-set channels: truncate each contact by its jitter
    draw, then clip it against both endpoints' downtime (a contact
    spanning a down interval splits into its surviving sub-intervals).
    Population, horizon and node kinds are preserved. Returns the trace
    unchanged (physically) when both channels are off. Raises
    [Invalid_argument] if the trace population differs from the plan's. *)

val transfer_fails : plan -> msg:int -> holder:int -> peer:int -> time:float -> bool
(** The loss channel's verdict for one attempted transfer. Pure:
    identical arguments always return the same verdict. *)
