(* Nanosecond monotonic clock. CLOCK_MONOTONIC via bechamel's [@noalloc]
   stub: system-wide monotone, so a span can never end before it starts
   and timestamps never run backwards across domains. The previous
   implementation clamped [Unix.gettimeofday] through a CAS loop, which
   capped resolution at a microsecond and serialized every reader; the
   profiler's enter/leave hot path needs both the nanoseconds and the
   absence of contention. *)

let now_ns () : int = Int64.to_int (Monotonic_clock.now ())

(* Seconds elapsed since [t0], a [now_ns] reading: the monotonic
   replacement for [Unix.gettimeofday () -. t0] in budgets and elapsed
   fields, which would jump with wall-clock adjustments. *)
let seconds_since (t0 : int) : float = Float.of_int (now_ns () - t0) *. 1e-9
