(** Candidate evaluation: materialize a patch, simulate the resulting
    design under the instrumented testbench, and score it against the
    oracle. Evaluations are memoized on a structural digest of the
    materialized module; candidate simulations run under budgets scaled to
    the golden run so runaway mutants are cut off quickly.

    Scoring splits into pure per-candidate work (memo key, lane hashes
    and lane probe, screens, simulation, fitness), safe on any domain,
    and sequential accounting that owns the memo cache and counters. The
    {!prepare}/{!commit} pair runs the pure work of a batch over a
    {!Pool} while keeping accounting — and therefore probe counts and
    cache state — identical to the sequential path for every [jobs]
    setting. The cache and the semantic table are written only by
    commits ({!eval_module}, {!commit}), never while {!prepare}'s pool
    tasks read them. *)

type status =
  | Simulated  (** ran to completion (or quiesced) *)
  | Compile_error of string
      (** elaboration failed — the hardware analogue of a mutant that
          does not compile *)
  | Sim_diverged of string  (** budget or simulated-time limit reached *)
  | Rejected_static of string
      (** the pre-simulation screener ({!Verilog.Analysis}) proved the
          mutant doomed; scored like a compile error, but no simulation
          budget was spent *)
  | Rejected_oversize
      (** runaway insertion growth: rejected outright without parsing or
          simulating, and counted under its own statistic *)
  | Rejected_racy of string
      (** the static race analyzer ({!Verilog.Race}) found a hazard in the
          candidate module; rejected without simulation when
          [cfg.screen_races] is set *)
  | Skipped_dead_edit
      (** the dataflow pruner ({!Verilog.Dataflow}) proved the candidate's
          edit dead — erasing provably-dead code yields the seed module's
          own skeleton — so the seed's fitness was reused without
          simulating *)

type outcome = {
  fitness : float;
  trace : Sim.Recorder.trace;
  status : status;
  sim_backend : string;
      (** which backend actually ran ("event", "compiled", or
          "fallback:<reason>"); "" when the candidate was never simulated *)
  sim_seconds : float;
      (** wall time spent inside the simulator for this outcome; timing
          only, excluded from journals *)
}

(** {2 Evaluation counters}

    One table holds every count the evaluator keeps. Each [counter] is a
    row; its {!name} is its journal key. Adding or deleting a counter is
    one constructor (in the type and in {!all_counters}) plus its name:
    snapshots, journal records, the GP funnel groups and the
    [Obs.Metrics] mirrors all walk the table. *)

type counter =
  | Lookups  (** evaluations requested, memoized or not *)
  | Probes  (** simulations actually run, compile failures included *)
  | Memo_hits  (** lookups served from the structural memo cache *)
  | Compile_errors  (** fresh candidates that failed elaboration *)
  | Static_rejects  (** rejected by the static screener, unsimulated *)
  | Oversize_rejects  (** rejected for implausible size, unsimulated *)
  | Racy_rejects  (** rejected by the static race screen, unsimulated *)
  | Semantic_hits
      (** served by an already-scored candidate with the same canonical
          form ({!Verilog.Canon}) *)
  | Dead_edit_skips
      (** served by the dead-edit proof ({!Verilog.Dataflow}) *)
  | Sims_event  (** fresh simulations on the event engine, fallbacks too *)
  | Sims_compiled  (** fresh simulations on the compiled backend *)
  | Compiled_fallbacks
      (** compiled requests run on the event engine; within [Sims_event] *)

(** Every counter, in table order (the order journal records use). *)
val all_counters : counter list

(** The counter's journal key, e.g. ["static_rejects"]. *)
val name : counter -> string

(** Pre-simulation rejections: the GP funnel's "screened" stage. *)
val screened : counter list

(** Lookups served without a fresh simulation: the funnel's "pruned"
    stage. *)
val pruned : counter list

(** Wall-clock accumulators carried next to the counts. Timing only: they
    vary run to run and are never journaled. *)
type timer =
  | Lane_seconds
      (** hashing for the static pruning lanes, summed across domains
          (with [jobs > 1] the hashing runs in pool tasks) *)
  | Sim_seconds_event  (** inside the event engine *)
  | Sim_seconds_compiled  (** inside the compiled backend *)

(** A counter table: an evaluator's live one ([t.table]), or a snapshot
    of it taken with {!counters}. *)
type counters

val zero : counters
val get : counters -> counter -> int
val seconds : counters -> timer -> float

(** Sum of a group of counters, e.g. [sum c screened]. *)
val sum : counters -> counter list -> int

val add : counters -> counters -> counters

(** [diff a b] is [a] minus [b], counter by counter. *)
val diff : counters -> counters -> counters

(** The counters as journal fields. [~final:true] is the [run_end] form:
    every counter in table order, lookups under the key ["evals"].
    [~final:false] is the per-generation / per-batch form: the
    search-disposition counters only (no per-backend simulation counts), opening with [probes] then [lookups]. *)
val journal_fields : final:bool -> counters -> (string * Obs.Json.t) list

type t = {
  problem : Problem.t;
  cfg : Config.t;
  original_size : int;
  cache : (string, outcome) Hashtbl.t;
  sem_tbl : (string, string) Hashtbl.t;
      (** semantic hash -> structural cache key of the donor candidate *)
  lanes_enabled : bool;
      (** static pruning active: [cfg.prune] and no parameter overrides
          on any instance of the target *)
  seed_key : string;  (** structural key of the unpatched module *)
  seed_prune_hash : string option;
      (** dead-edit skeleton hash of the unpatched module, when pruning *)
  table : counters;
      (** live: [get] reads current values. It serves as a snapshot only
          once nothing evaluates on this evaluator again (an engine's
          final result); take {!counters} otherwise. *)
}

(** Snapshot of the live table. *)
val counters : t -> counters

val create : Config.t -> Problem.t -> t

(** Memo-cache key for a candidate: its structural hash. *)
val key_of : Verilog.Ast.module_decl -> string
val eval_module : t -> Verilog.Ast.module_decl -> outcome
val eval_patch : t -> Verilog.Ast.module_decl -> Patch.t -> outcome

(** Short stable label for a status ("simulated", "compile_error", ...),
    as used in metric names and trace span arguments. *)
val status_label : status -> string

(** Per-signal fitness attribution of an outcome against the problem's
    oracle under the configured phi ({!Fitness.score_by_signal}); the
    per-signal sums add up to the outcome's aggregate score exactly. *)
val attribution : t -> outcome -> (string * Fitness.signal_score) list

(** A candidate as a batch takes it: its memo key ({!key_of} of its
    module) and its module, materialized only when an evaluation needs it
    (a memo miss). A caller that knows the key without the module passes
    a suspended computation of it; batches force it on the calling domain
    only. *)
type candidate = {
  c_key : string;
  c_module : Verilog.Ast.module_decl Lazy.t;
}

(** The candidate of a materialized module: hashes it. *)
val candidate : Verilog.Ast.module_decl -> candidate

(** A batch of candidates whose simulations have (possibly) been run
    speculatively across a pool, awaiting sequential commitment. *)
type prepared

(** [prepare ev ~pool candidates] computes, for each first-seen
    cache-missing key of the batch, its lane hashes, a read-only lane
    probe and (when no lane serves it) its outcome, all as [pool] tasks.
    It writes nothing of [ev] but the [Lane_seconds] timer. With a pool of
    size 1 nothing is computed: each {!commit} evaluates on demand — the
    sequential path. *)
val prepare : t -> pool:Pool.t -> candidate array -> prepared

(** [commit p i] finalizes candidate [i] with exactly the accounting of
    {!eval_module} (cache insertion, probe/reject counters), reusing the
    speculative simulation when one was prepared. Callers must commit in
    batch index order; stopping early discards the remaining speculative
    work and leaves [ev] byte-for-byte as a sequential run would. *)
val commit : prepared -> int -> outcome
