(* Self-profiler: wall-time attribution inside a simulation.

   A fourth observability sink alongside Trace/Metrics/Journal, built for
   one question the Chrome-trace spans cannot answer: where inside a
   simulation does the time go — which scheduler region, which process,
   which compiled node? Sites are interned once (a name becomes a small
   stable id); entering a site pushes a frame on a per-domain path tree
   and charges the elapsed monotonic time to the frame that was open, so
   every nanosecond between [start] and the report lands on exactly one
   call path. Paths merge across domains at report time into folded
   stacks ("a;b;c ns"), the format FlameGraph and speedscope import
   directly.

   The disabled contract matches the other sinks: instrumented call sites
   guard with a single boolean test and never allocate; the sink itself
   is only consulted when that test passes. *)

type site
(* An interned attribution point. Creating a site is mutex-guarded and
   idempotent per name; doing it at module-load time or once per launch
   keeps the hot path free of lookups. *)

val site : string -> site
val site_name : site -> string

val enabled : unit -> bool
(* A plain boolean read: the gate instrumented code checks. *)

val start : unit -> unit
(* Enable the profiler and reset all accumulators (every domain's path
   tree) and the GC baseline. *)

val stop : unit -> unit
(* Disable the profiler. Accumulated data is retained for [report]. *)

val enter : site -> unit
(* Open a frame: charge time elapsed since the last transition to the
   currently open path, then descend. When no frame is open, the gap
   since the previous top-level frame closed is charged to that frame
   (trailing-edge attribution) — the glue between frames is profiler and
   scheduler overhead adjacent to the frame that just ran, and charging
   it there lets the region ledger tile the measured wall time. Only
   call when [enabled ()]. *)

val leave : site -> unit
(* Close the innermost frame, charging its elapsed time. Leaving a site
   that is not the innermost open frame records an imbalance (and still
   pops), as does leaving with no frame open. *)

val framed : site -> (unit -> 'a) -> 'a
(* [framed s f] runs [f] inside a frame of [s], closing it when [f]
   returns or raises (simulated [$finish] escapes as an exception).
   Allocates nothing. Only call when [enabled ()]. *)

val bump : site -> unit
(* Count-only attribution: record one occurrence of [site] under the
   current path without reading the clock. For high-frequency events
   (per-assignment counters) where a timestamp would dominate the cost. *)

type path = {
  p_stack : string list; (* outermost frame first *)
  p_ns : int; (* self time: excludes time charged to children *)
  p_count : int; (* frame entries (or bumps) at this exact path *)
}

type gc_delta = {
  gd_minor_words : float;
  gd_promoted_words : float;
  gd_major_words : float;
  gd_minor_collections : int;
  gd_major_collections : int;
}

type report = {
  r_total_ns : int; (* sum of self time over all paths, all domains *)
  r_paths : path list; (* merged across domains, sorted by stack *)
  r_gc : gc_delta; (* since [start], on the reporting domain *)
  r_imbalances : string list; (* newest first *)
}

val report : unit -> report

val regions : report -> (string * int * int) list
(* Inclusive time by top-level frame: (name, ns including descendants,
   entry count), sorted by ns descending. The per-edge ledger's rows. *)

val by_leaf : ?prefix:string -> report -> (string * int * int) list
(* Self time grouped by innermost frame name, optionally filtered to
   names starting with [prefix]; sorted by ns descending. *)

val folded : ?zero_ns:bool -> report -> string
(* FlameGraph/speedscope folded stacks, one "a;b;c ns" line per path,
   sorted by stack. [zero_ns] replaces timings with the entry count —
   structure stays comparable across runs while timings vary. *)

val to_json : report -> Json.t

val imbalances : unit -> string list
