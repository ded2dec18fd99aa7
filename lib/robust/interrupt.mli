(** Cooperative SIGINT/SIGTERM handling for long sweeps.

    A killed sweep should checkpoint what it finished and flush its
    telemetry, not vanish mid-write. {!install} replaces the default
    die-now behaviour with a flag; checkpoint loops poll {!check} at
    their safe points (between checkpoint rounds, between experiment
    levels) and raise {!Interrupted}, which the CLI catches to flush
    [--trace]/[--profile] output and exit with [128 + signal]
    (130 for SIGINT, 143 for SIGTERM — distinct from the 0/1/2/3
    result codes).

    The first signal only sets the flag and restores the default
    handler, so a second Ctrl-C kills the process immediately — the
    escape hatch when a sweep is stuck before its next safe point.

    Nothing here runs unless {!install} was called: library code may
    call {!check} unconditionally, and embedders that never install
    the handlers keep their own signal disposition. *)

exception Interrupted of int
(** Carries the OS signal number (2 = SIGINT, 15 = SIGTERM). *)

val install : unit -> unit
(** Install the flag-setting handlers for SIGINT and SIGTERM.
    Idempotent. *)

val uninstall : unit -> unit
(** Restore default signal behaviour and clear any pending flag. *)

val check : unit -> unit
(** Raise [Interrupted n] if a signal is pending; otherwise a no-op
    (one atomic load). Safe to call without {!install}. *)

val exit_code : int -> int
(** [exit_code n] is [128 + n] — the conventional exit status for
    "terminated by signal [n]". *)
