(** Deterministic failure-injection sites (fail-rs style).

    Robustness code is exactly as good as the failures it has been run
    against. This module lets the library name its dangerous moments
    ({e sites} such as ["store.insert.pre_rename"]) and lets a test or
    a chaos run compile a {e plan} that makes chosen sites raise, act
    flaky, or kill the process outright — while a production run pays
    one atomic load and a branch per site ({!trigger} with no plan
    installed is a guaranteed no-op, the same null-sink discipline as
    telemetry).

    Determinism contract: every verdict is a pure function of the
    plan's seed, the site name, the caller-supplied key and the current
    {!with_attempt} retry attempt — seeded exactly like
    [Psn_sim.Faults], never from scheduling order — so an injected
    failure schedule is reproducible for any [--jobs] × [--chunk]
    combination as long as triggers pass a stable key (task seed,
    message id, ...). The one exception is the [@N] hit-count rule,
    which consumes a per-site atomic counter: it is deterministic only
    for sites hit from a single domain in program order (the store's
    single-writer sites) or when any victim is acceptable (crash
    matrices).

    Plan syntax ({!parse}): comma-separated [site=action] clauses.

    {v
    action  ::= off            never fires (documents a site)
              | error          raise Injected (permanent) every hit
              | flaky          raise Injected (transient) every hit
              | crash          kill the process (exit 170, no cleanup)
    rule    ::= action
              | action @ N     fire on the Nth hit of the site (1-based)
              | action * N     fire while the retry attempt is < N
              | action % P     fire with probability P, hashed from
                               (seed, site, key, attempt)
    v}

    Examples: ["store.insert.pre_rename=crash@1"] kills the process
    the first time an insert reaches its rename;
    ["runner.task=flaky*2"] makes every task fail its first two
    attempts and succeed on the third;
    ["runner.task=error%0.2"] fails a deterministic 20% of tasks. *)

exception Injected of { site : string; transient : bool }
(** Raised by a triggered [error]/[flaky] site. [transient] failures
    are the ones retry layers ({!Psn_sim.Parallel.map_result}) may
    retry; permanent ones always propagate. *)

val crash_exit_code : int
(** Exit code of a [crash] action: 170. Chosen to collide with neither
    the CLI's documented codes (0-3) nor the 128+signal convention, so
    a harness can assert that a death was an injected crash. *)

type plan
(** A compiled plan. Sharing one plan across domains is safe: verdict
    state is either immutable or atomic. *)

val parse : ?seed:int64 -> string -> (plan, string) result
(** Compile a plan from the syntax above. [seed] (default 0) roots
    every probabilistic verdict. Errors name the offending clause. *)

val install : plan -> unit
(** Make the plan current for the whole process (replacing any
    previous one). Call before the work under test; triggers hit from
    any domain see it. *)

val uninstall : unit -> unit
(** Remove the current plan; every site is a no-op again. *)

val trigger : ?key:int64 -> string -> unit
(** [trigger ~key site] asks the current plan for a verdict. With no
    plan installed this is one atomic load and a branch — safe on hot
    paths. [key] (default 0) names the unit of work so probabilistic
    verdicts are schedule-independent; pass the task's seed, message
    id, or another stable identity. *)

val is_transient : exn -> bool
(** [true] exactly for [Injected {transient = true; _}] — the
    predicate retry layers use to decide whether another attempt may
    succeed. *)

val describe : exn -> string
(** Human-readable one-liner for a failed task cell: names the site
    and permanence for {!Injected}, falls back to
    [Printexc.to_string] for everything else. *)

val with_attempt : int -> (unit -> 'a) -> 'a
(** [with_attempt n f] runs [f] with the domain-local retry attempt
    counter set to [n] (0 = first try), restoring the previous value
    afterwards even on exception. [flaky*N] and [%P] verdicts read it,
    which is how a retried task can deterministically stop failing. *)
