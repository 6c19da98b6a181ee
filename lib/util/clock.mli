(** The process-wide time source shared by {!Telemetry} (timers),
    {!Phase} (request phases) and {!Journal} (event timestamps). One
    injectable reading so deterministic tests drive every layer from a
    single fake clock. *)

val now : unit -> float
(** Current reading of the installed clock, seconds. Defaults to
    [Unix.gettimeofday] - wall-clock time, which is {e not} monotonic:
    consumers computing elapsed durations must clamp negative
    differences to zero (NTP steps and leap smears can move the clock
    backwards mid-measurement). *)

val set : (unit -> float) -> unit
(** Replace the time source - used by tests that need deterministic
    timestamps and durations. {!Telemetry.set_clock} is an alias. *)
