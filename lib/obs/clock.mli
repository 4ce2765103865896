(** Monotonic-by-construction timing behind one interface.

    The container's stdlib has no [Unix.clock_gettime]; [now] wraps
    [Unix.gettimeofday] and pins the reading to be non-decreasing
    across calls (a backwards NTP step can otherwise produce negative
    span durations). [cpu] exposes [Sys.time] for CPU accounting. *)

val now : unit -> float
(** Wall-clock seconds since the epoch, guaranteed non-decreasing
    within the process. *)

val elapsed : since:float -> float
(** [now () -. since], clamped to be non-negative. *)

val us_of_s : float -> float
(** Seconds -> microseconds (the unit Chrome trace_event uses). *)
