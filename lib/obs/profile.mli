(* The span store: wall-time attribution from a campaign trial down to a
   simulation region, and the source of the Chrome timeline.

   Every instrumented boundary is a site, interned once. Entering a site
   pushes a frame on a per-domain path tree and charges the elapsed
   monotonic time to the frame that was open, so every nanosecond
   between [start] and the report lands on exactly one call path. Paths
   merge across domains at report time into folded stacks ("a;b;c ns"),
   the format FlameGraph and speedscope import directly.

   Two exports read the one store: the profiler's path tree
   ([start]/[report]), and the timeline ([start_timeline]), one event
   per closed frame of a span-level site, which {!Trace} renders.
   Granularity is fixed where a site is declared: span-level sites (the
   repair loop, evaluation, simulation boundaries) gate on [recording
   ()]; the others (scheduler regions, processes, compiled nodes) are
   for the profiler only and gate on [enabled ()].

   Disabled, an instrumented site is one boolean test and allocates
   nothing. *)

type site
(* An interned attribution point, created at module load or once per
   launch: mutex-guarded and idempotent per name. *)

val site : ?span:string -> ?tiled:bool -> ?idle:bool -> string -> site
(* [site name] is a profiler-only site. [site ~span:cat name] is a
   span-level site: closing one of its frames while a timeline records
   appends an event of category [cat]. [~tiled:true] marks a frame whose
   children tile it, like the top level does (see [enter]). [~idle:true]
   marks a wait (a pool worker with no work): its self time is reported
   as [r_idle_ns], outside the paths and the total the shares divide
   by. Redeclaring a name with other properties raises
   [Invalid_argument]. *)

val site_name : site -> string

val enabled : unit -> bool
(* The profiler is on: the gate for profiler-only sites. *)

val recording : unit -> bool
(* The profiler or a timeline is on: the gate for span-level sites. *)

val timeline : unit -> bool
(* A timeline is recording: event arguments are kept. *)

val start : unit -> unit
(* Enable the profiler and reset all accumulators (every domain's path
   tree and imbalance log) and the GC baseline. *)

val stop : unit -> unit
(* Disable the profiler. Accumulated data is retained for [report]. *)

val enter : site -> unit
(* Open a frame: charge time elapsed since the last transition to the
   currently open path, then descend. At the top level and inside a
   tiled frame, the gap since the previous child closed is charged to
   that child instead (trailing-edge attribution): the glue between the
   frames of a loop is overhead adjacent to the frame that just ran, and
   charging it there lets the children tile the measured wall time.
   Only call when the site's gate passes. *)

val leave : ?args:(string * Json.t) list -> site -> unit
(* Close the innermost frame, charging its elapsed time as [enter] does;
   while a timeline records, a span-level frame becomes one event
   carrying [args]. Leaving a site that is not the innermost open frame
   records an imbalance (and still pops, without an event), as does
   leaving with no frame open. *)

val unwind_to : site -> unit
(* Make the innermost open frame of [site] the innermost open frame,
   closing the frames an exception escaped through (charged, without
   timeline events). A no-op when [site] is innermost or not open. *)

val framed : ?args:(string * Json.t) list -> site -> (unit -> 'a) -> 'a
(* [framed s f] runs [f] inside a frame of [s] when [recording ()],
   closing it when [f] returns or raises (simulated [$finish] escapes as
   an exception); otherwise just [f ()]. *)

val bump : site -> unit
(* Count one occurrence of [site] under the current path without reading
   the clock, for events so frequent a timestamp would dominate. *)

(* --- Timeline --------------------------------------------------------- *)

type event = {
  e_name : string;
  e_cat : string;
  e_tid : int; (* the recording domain's id *)
  e_ts_ns : int; (* [Clock.now_ns] when the frame opened, or the sample *)
  e_dur_ns : int option; (* [None]: a counter sample *)
  e_args : (string * Json.t) list;
}

val start_timeline : unit -> unit
(* Record events into empty per-domain buffers (resetting the path trees
   too unless the profiler is on). *)

val stop_timeline : unit -> event list option
(* Stop recording and drain every domain's buffer; [None] when no
   timeline was recording. *)

val sample : cat:string -> name:string -> (string * float) list -> unit
(* Append a counter sample while a timeline records. *)

(* --- Reports ---------------------------------------------------------- *)

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
  r_idle_ns : int; (* self time of idle sites, all domains; not in paths *)
  r_paths : path list; (* merged across domains, sorted by stack *)
  r_gc : gc_delta; (* since [start], on the reporting domain *)
  r_imbalances : string list; (* as [imbalances ()] *)
}

val report : unit -> report

val group :
  (path -> (string * int * int) option) -> report -> (string * int * int) list
(* [group f r] sums the (ns, count) that [f] assigns to a name over
   every path it maps, sorted by ns descending, name as tiebreak. *)

val regions : report -> (string * int * int) list
(* Inclusive time by top-level frame: (name, ns including descendants,
   entry count), sorted by ns descending. *)

val by_leaf : report -> (string * int * int) list
(* Self time grouped by innermost frame name, sorted by ns descending. *)

val folded : ?zero_ns:bool -> report -> string
(* FlameGraph/speedscope folded stacks, one "a;b;c ns" line per path,
   sorted by stack. [zero_ns] replaces timings with the entry count —
   structure stays comparable across runs while timings vary. *)

val to_json : report -> Json.t

val imbalances : unit -> string list
(* Faulty leaves on every domain, newest first per domain, plus one
   entry per domain that still has a frame open. *)
