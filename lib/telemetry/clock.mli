(** The wall clock, quarantined.

    This is the only module in [lib/] (or anywhere outside it) that may
    read the system clock: the [wall-clock] lint rule allowlists exactly
    this file, so every timing in the tree — telemetry span timestamps,
    benchmark wall times — is auditable as a call to {!now_s}.

    Clock readings may only ever {e describe} a computation (spans,
    profiles, benchmark output); feeding one into a simulation result would
    break the determinism contract, which is why the allowlist is this
    narrow. *)

val now_s : unit -> float
(** Seconds since the Unix epoch, as [Unix.gettimeofday]. Telemetry
    stores timestamps relative to a collector's epoch, so only
    differences of readings are ever reported. *)
