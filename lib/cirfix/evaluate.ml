(* Candidate evaluation: materialize a patch, simulate the design under the
   instrumented testbench, and score it against the oracle. Evaluations are
   memoized on a structural digest of the materialized module (distinct
   patches frequently collapse to the same program).

   Evaluation splits into a pure compute step ([compute], safe to run on
   any domain: it touches only immutable fields of [t]) and a sequential
   accounting step that owns the memo cache and the counters. The batch API
   ([prepare] / [commit]) exploits this: a batch of candidates is scored
   speculatively across a domain pool, then committed one by one on the
   main domain with exactly the accounting the sequential path would have
   produced — which is what keeps probe counts and cache state identical
   for every [jobs] setting. *)

type status =
  | Simulated (* ran to completion (or quiesced) *)
  | Compile_error of string (* elaboration failed: the "does not compile" case *)
  | Sim_diverged of string (* budget blown or time limit: fitness 0 *)
  | Rejected_static of string
    (* the pre-simulation screener proved the mutant doomed (e.g. a
       zero-delay combinational loop): scored like a compile error, but
       the simulation budget is never touched *)
  | Rejected_oversize
    (* runaway insertion growth: rejected outright, like a mutant that
       does not compile, without parsing or simulating it *)
  | Rejected_racy of string
    (* the static race analyzer (Verilog.Race) found a hazard in the
       candidate module: rejected like a static screen hit, without
       spending a simulation *)
  | Skipped_dead_edit
    (* the dataflow pruner proved the candidate's edit dead: erasing
       provably-dead code from it yields the same skeleton as erasing it
       from the seed, so the seed's fitness is reused without simulating *)

type outcome = {
  fitness : float;
  trace : Sim.Recorder.trace;
  status : status;
  sim_backend : string;
      (* which backend actually ran ("event", "compiled", or
         "fallback:<reason>" per Sim.Simulate.backend_used_to_string);
         "" when the candidate was never simulated *)
  sim_seconds : float;
      (* wall time inside Sim.Simulate.run for this outcome; 0 when never
         simulated. Timing only — excluded from journals. *)
}

(* --- Evaluation counters --------------------------------------------------
   One table, in the order of [all_counters]; snapshots, journal records,
   funnel groups and metric mirrors all walk it. *)

type counter =
  | Lookups
  | Probes
  | Memo_hits
  | Compile_errors
  | Static_rejects
  | Oversize_rejects
  | Racy_rejects
  | Semantic_hits
  | Dead_edit_skips
  | Sims_event
  | Sims_compiled
  | Compiled_fallbacks

let all_counters =
  [
    Lookups; Probes; Memo_hits; Compile_errors; Static_rejects;
    Oversize_rejects; Racy_rejects; Semantic_hits; Dead_edit_skips;
    Sims_event; Sims_compiled; Compiled_fallbacks;
  ]

let name = function
  | Lookups -> "lookups"
  | Probes -> "probes"
  | Memo_hits -> "memo_hits"
  | Compile_errors -> "compile_errors"
  | Static_rejects -> "static_rejects"
  | Oversize_rejects -> "oversize_rejects"
  | Racy_rejects -> "racy_rejects"
  | Semantic_hits -> "semantic_hits"
  | Dead_edit_skips -> "dead_edit_skips"
  | Sims_event -> "sims_event"
  | Sims_compiled -> "sims_compiled"
  | Compiled_fallbacks -> "compiled_fallbacks"

let screened =
  [ Compile_errors; Static_rejects; Oversize_rejects; Racy_rejects ]

let pruned = [ Memo_hits; Semantic_hits; Dead_edit_skips ]

(* Position in [all_counters]. The table is short, so a scan costs less
   than a second mapping kept in sync; being top-level, it allocates
   nothing. *)
let rec position (k : counter) i = function
  | [] -> assert false
  | k' :: rest -> if k' == k then i else position k (i + 1) rest

let index (k : counter) : int = position k 0 all_counters

let n_counters = List.length all_counters

type timer = Lane_seconds | Sim_seconds_event | Sim_seconds_compiled

(* Timers sit after the counters, in whole nanoseconds, so the live table
   and every snapshot are one flat int array: a snapshot is a copy that
   nothing mutates afterwards. *)
let timer_index = function
  | Lane_seconds -> n_counters
  | Sim_seconds_event -> n_counters + 1
  | Sim_seconds_compiled -> n_counters + 2

type counters = int array

let new_table () : counters = Array.make (n_counters + 3) 0
let zero : counters = new_table ()
let get (c : counters) (k : counter) : int = c.(index k)

let seconds (c : counters) (t : timer) : float =
  Float.of_int c.(timer_index t) *. 1e-9

let sum (c : counters) (ks : counter list) : int =
  List.fold_left (fun acc k -> acc + get c k) 0 ks

let add : counters -> counters -> counters = Array.map2 ( + )
let diff : counters -> counters -> counters = Array.map2 ( - )

(* Journal form. [run_end] carries the whole table in order, lookups under
   the key "evals". The per-backend simulation counts are run totals only,
   so the per-generation and per-batch progress records carry the
   search-disposition counters alone, and open with probes before lookups,
   the order existing journals have. Timers are never journaled: they vary
   run to run, and journals are byte-identical across [jobs]. *)
let journal_fields ~(final : bool) (c : counters) : (string * Obs.Json.t) list =
  let field k = (name k, Obs.Json.Int (get c k)) in
  if final then
    List.map
      (function
        | Lookups -> ("evals", Obs.Json.Int (get c Lookups)) | k -> field k)
      all_counters
  else
    field Probes :: field Lookups
    :: List.filter_map
         (function
           | Lookups | Probes | Sims_event | Sims_compiled
           | Compiled_fallbacks ->
               None
           | k -> Some (field k))
         all_counters

type t = {
  problem : Problem.t;
  cfg : Config.t;
  original_size : int; (* node count of the unpatched module *)
  cache : (string, outcome) Hashtbl.t;
  sem_tbl : (string, string) Hashtbl.t;
      (* semantic hash -> cache key of the first candidate that produced
         it (the donor); consulted on structural cache misses *)
  lanes_enabled : bool;
      (* static pruning lanes active: [cfg.prune], and the target module
         is never instantiated with parameter overrides (Dataflow/Canon
         facts assume declaration defaults) *)
  seed_key : string; (* structural key of the unpatched module *)
  seed_prune_hash : string option;
      (* dead-edit skeleton of the unpatched module, when lanes are on *)
  table : counters; (* live; mutated only by sequential accounting *)
}

let counters (ev : t) : counters = Array.copy ev.table

(* Memo keys are prefixed with the configured backend so cached fitness
   can never leak across backends: flipping [--backend] between otherwise
   identical runs always re-simulates. *)
let key_of (cfg : Config.t) (candidate : Verilog.Ast.module_decl) : string =
  Sim.Simulate.backend_to_string cfg.backend
  ^ "|"
  ^ Verilog.Ast_utils.structural_hash candidate

(* The semantic/dead-edit facts are computed against the target module's
   declaration-default parameters, so a design that instantiates the
   target with `#(...)` overrides anywhere invalidates them. *)
let target_param_overridden (problem : Problem.t) : bool =
  List.exists
    (fun (m : Verilog.Ast.module_decl) ->
      List.exists
        (fun (it : Verilog.Ast.item) ->
          match it.it with
          | Verilog.Ast.Instance { mod_name; params; _ } ->
              String.equal mod_name problem.target && params <> []
          | _ -> false)
        m.items)
    problem.design

let create (cfg : Config.t) (problem : Problem.t) : t =
  let target = Problem.target_module problem in
  let lanes_enabled = cfg.prune && not (target_param_overridden problem) in
  {
    problem;
    cfg;
    original_size = Verilog.Ast_utils.module_size target;
    cache = Hashtbl.create 256;
    sem_tbl = Hashtbl.create 256;
    lanes_enabled;
    seed_key = key_of cfg target;
    seed_prune_hash =
      (if lanes_enabled then Some (Verilog.Dataflow.prune_hash target)
       else None);
    table = new_table ();
  }

(* Bloated candidates (runaway insertion growth) are rejected outright,
   like mutants that fail to compile. *)
let oversize (ev : t) (candidate : Verilog.Ast.module_decl) : bool =
  Verilog.Ast_utils.module_size candidate > (20 * ev.original_size) + 512

(* Fitness 0 without a simulation: compile failures and every screen. *)
let unsimulated status =
  {
    fitness = 0.;
    trace = [];
    status;
    sim_backend = "";
    sim_seconds = 0.;
  }

let oversize_outcome = unsimulated Rejected_oversize

(* --- Observability ------------------------------------------------------
   Metric instruments are registered once at module load; recording is
   guarded by [Obs.Metrics.enabled] at each site so the disabled cost is a
   boolean load. The sequential accounting step owns all counter updates,
   which keeps metric values identical across [jobs] settings. *)

(* [Obs.Metrics] mirrors of table entries, registered from the table and
   bumped by [bump]; probes have none (they are the simulated, diverged
   and compile-error statuses together, counted per status below). *)
let metric_name = function
  | Probes -> None
  | Compile_errors -> Some "eval.compile_error"
  | Static_rejects -> Some "eval.rejected_static"
  | Oversize_rejects -> Some "eval.rejected_oversize"
  | Racy_rejects -> Some "eval.rejected_racy"
  | k -> Some ("eval." ^ name k)

let metrics =
  Array.of_list
    (List.map
       (fun k -> Option.map Obs.Metrics.counter (metric_name k))
       all_counters)

let m_simulated = Obs.Metrics.counter "eval.simulated"
let m_sim_diverged = Obs.Metrics.counter "eval.sim_diverged"

let bump ?(by = 1) (ev : t) (k : counter) : unit =
  let i = index k in
  ev.table.(i) <- ev.table.(i) + by;
  if Obs.Metrics.enabled () then
    Option.iter (fun m -> Obs.Metrics.add m by) metrics.(i)

let add_seconds (ev : t) (t : timer) (dt : float) : unit =
  let i = timer_index t in
  ev.table.(i) <- ev.table.(i) + Float.to_int (dt *. 1e9)

let status_label = function
  | Simulated -> "simulated"
  | Compile_error _ -> "compile_error"
  | Sim_diverged _ -> "sim_diverged"
  | Rejected_static _ -> "rejected_static"
  | Rejected_oversize -> "rejected_oversize"
  | Rejected_racy _ -> "rejected_racy"
  | Skipped_dead_edit -> "skipped_dead_edit"

(* Elaborate and simulate one candidate — the post-screening tail of
   [compute_unspanned], also the reference evaluation [cfg.check_pruning]
   verifies static-lane decisions against. Touches no mutable state. *)
let simulate_candidate (ev : t) (candidate : Verilog.Ast.module_decl) :
    outcome =
  let design = Problem.with_candidate ev.problem candidate in
  (* Candidates get a budget proportional to the golden run: a mutant
     spinning in a zero-delay loop is cut off quickly instead of
     burning the whole per-candidate ceiling. *)
  let max_steps =
    min ev.cfg.max_sim_steps ((ev.problem.golden_steps * 10) + 5_000)
  in
  let max_time =
    min ev.cfg.max_sim_time ((ev.problem.golden_end_time * 2) + 1_000)
  in
  let t0 = Obs.Clock.now_ns () in
  match
    Sim.Simulate.run ~max_steps ~max_time ~backend:ev.cfg.backend design
      ev.problem.spec
  with
  | Error (Sim.Simulate.Elab_failure msg) -> unsimulated (Compile_error msg)
  | Ok r -> (
      let sim_seconds = Obs.Clock.seconds_since t0 in
      let sim_backend = Sim.Simulate.backend_used_to_string r.backend_used in
      let scored status =
        {
          fitness =
            Fitness.fitness ~phi:ev.cfg.phi ~expected:ev.problem.oracle
              ~actual:r.trace;
          trace = r.trace;
          status;
          sim_backend;
          sim_seconds;
        }
      in
      match r.outcome with
      | Sim.Engine.Finished | Sim.Engine.Quiescent -> scored Simulated
      | Sim.Engine.Time_limit_reached ->
          (* Score whatever trace was produced; a looping mutant is
             still penalized by its missing samples. *)
          scored (Sim_diverged "time limit")
      | Sim.Engine.Budget_exceeded m ->
          {
            fitness = 0.;
            trace = [];
            status = Sim_diverged m;
            sim_backend;
            sim_seconds;
          })

(* Score one candidate without touching the cache or any counter. Reads
   only immutable state ([cfg], [problem], [original_size]), so concurrent
   calls from worker domains are safe. *)
let compute_unspanned (ev : t) (candidate : Verilog.Ast.module_decl) : outcome =
  if oversize ev candidate then oversize_outcome
  else begin
    let screened =
      if ev.cfg.screen_mutants then begin
        let t = if Obs.Trace.enabled () then Obs.Trace.begin_ () else 0 in
        let r = Verilog.Analysis.screen ~checks:ev.cfg.screen_checks candidate in
        if Obs.Trace.enabled () then
          Obs.Trace.complete ~cat:"eval" ~name:"screen.static" t;
        r
      end
      else None
    in
    let racy () =
      if ev.cfg.screen_races then begin
        let t = if Obs.Trace.enabled () then Obs.Trace.begin_ () else 0 in
        let r = Verilog.Race.screen ~hazards:Verilog.Race.all_hazards candidate in
        if Obs.Trace.enabled () then
          Obs.Trace.complete ~cat:"eval" ~name:"screen.race" t;
        r
      end
      else None
    in
    match screened with
    | Some msg ->
        (* Pre-simulation screening: the candidate is statically doomed,
           so reject it (scored like a compile error) without spending a
           simulation. *)
        unsimulated (Rejected_static msg)
    | None ->
    match racy () with
    | Some msg ->
        (* Race screening: the candidate module contains a static race
           hazard; rejected without a simulation, under its own count. *)
        unsimulated (Rejected_racy msg)
    | None -> simulate_candidate ev candidate
  end

(* [compute_unspanned] under a per-candidate trace span carrying the
   resulting status; runs on whatever domain called it, so the span lands
   on that worker's track. *)
let compute (ev : t) (candidate : Verilog.Ast.module_decl) : outcome =
  if not (Obs.Trace.enabled ()) then compute_unspanned ev candidate
  else begin
    let t = Obs.Trace.begin_ () in
    let o = compute_unspanned ev candidate in
    Obs.Trace.complete ~cat:"eval"
      ~args:[ ("status", Obs.Json.Str (status_label o.status)) ]
      ~name:"evaluate" t;
    o
  end

(* Counter accounting for a freshly computed (non-memoized) outcome,
   mirroring what the sequential path charges per status. *)
let account (ev : t) (o : outcome) =
  (* Per-backend accounting. [sim_backend] is deterministic for a given
     design (compilation either succeeds or falls back identically on
     every domain), so these counters stay jobs-invariant like the rest
     of the commit-time accounting. A fallback run counts as an event
     simulation AND under [Compiled_fallbacks]. *)
  (if o.sim_backend <> "" then
     if String.equal o.sim_backend "compiled" then begin
       bump ev Sims_compiled;
       add_seconds ev Sim_seconds_compiled o.sim_seconds
     end
     else begin
       bump ev Sims_event;
       add_seconds ev Sim_seconds_event o.sim_seconds;
       if String.starts_with ~prefix:"fallback:" o.sim_backend then
         bump ev Compiled_fallbacks
     end);
  match o.status with
  | Rejected_static _ -> bump ev Static_rejects
  | Rejected_racy _ -> bump ev Racy_rejects
  | Rejected_oversize -> bump ev Oversize_rejects
  | Compile_error _ ->
      bump ev Probes;
      bump ev Compile_errors
  | Simulated ->
      bump ev Probes;
      if Obs.Metrics.enabled () then Obs.Metrics.incr m_simulated
  | Sim_diverged _ ->
      bump ev Probes;
      if Obs.Metrics.enabled () then Obs.Metrics.incr m_sim_diverged
  | Skipped_dead_edit -> () (* [compute] never produces this status *)

(* --- Static pruning lanes -----------------------------------------------

   On a structural cache miss, two dataflow-derived lanes may still serve
   the lookup without a simulation:

   - semantic lane: the candidate's canonical form (Verilog.Canon) hashes
     onto an already-scored candidate's; fitness-equivalence is proved,
     so the donor's outcome is reused ([semantic_hits]).
   - dead-edit lane: erasing provably-dead code (Verilog.Dataflow) from
     the candidate yields the seed module's own erased skeleton, so the
     edit cannot change behaviour and the seed's fitness is reused under
     [Skipped_dead_edit] ([dead_edit_skips]).

   Lane decisions are made only on the main domain, sequentially, against
   monotonically-growing state (sem_tbl, cache) — a hit observed during
   [prepare] is therefore still a hit at [commit] time, which keeps
   results identical across [jobs] settings. Outcomes whose status is
   tied to the candidate's structure, not its semantics (the static and
   size screens), are never donated through the semantic lane. *)

type lane_probe =
  | Lane_sem of string * outcome (* semantic hash, donor outcome *)
  | Lane_dead of string * outcome (* semantic hash, seed outcome *)
  | Lane_none of string option (* semantic hash, when one was computed *)

let transferable = function
  | Simulated | Sim_diverged _ | Compile_error _ | Skipped_dead_edit -> true
  | Rejected_static _ | Rejected_oversize | Rejected_racy _ -> false

(* The two hashes a lane decision needs. Computing them is the lanes'
   entire cost (two AST walks), so they are computed at most once per
   candidate — [prepare] passes them through to [commit] — and the
   prune hash, only needed when the semantic lane misses, is skipped
   when the semantic table already holds the candidate's hash. *)
type lane_hashes = {
  lh_sem : string;
  lh_prune : string option; (* None when provably not needed *)
}

(* Main domain only: reads [sem_tbl] and accumulates [lane_seconds]. *)
let lane_hashes (ev : t) (candidate : Verilog.Ast.module_decl) :
    lane_hashes option =
  if (not ev.lanes_enabled) || oversize ev candidate then None
  else begin
    let t0 = Obs.Clock.now_ns () in
    let sem = Verilog.Canon.semantic_hash candidate in
    let prune =
      match ev.seed_prune_hash with
      | Some _ when not (Hashtbl.mem ev.sem_tbl sem) ->
          Some (Verilog.Dataflow.prune_hash candidate)
      | _ -> None
    in
    add_seconds ev Lane_seconds (Obs.Clock.seconds_since t0);
    Some { lh_sem = sem; lh_prune = prune }
  end

(* Read-only lane probe over precomputed hashes: pure table lookups.
   Callers on the main domain only. *)
let lane_probe (ev : t) (key : string) (h : lane_hashes option) : lane_probe =
  match h with
  | None -> Lane_none None
  | Some { lh_sem = sem; lh_prune } -> (
      match Hashtbl.find_opt ev.sem_tbl sem with
      | Some donor_key -> (
          match Hashtbl.find_opt ev.cache donor_key with
          | Some o -> Lane_sem (sem, o)
          | None -> Lane_none (Some sem))
      | None -> (
          match (ev.seed_prune_hash, lh_prune) with
          | Some sh, Some ph
            when (not (String.equal key ev.seed_key)) && String.equal ph sh
            -> (
              match Hashtbl.find_opt ev.cache ev.seed_key with
              | Some seed_o
                when (match seed_o.status with
                     | Simulated | Sim_diverged _ -> true
                     | _ -> false) ->
                  Lane_dead (sem, seed_o)
              | _ -> Lane_none (Some sem))
          | _ -> Lane_none (Some sem)))

(* Under [cfg.check_pruning], every lane decision is double-checked
   against the reference evaluation it claims to predict: the candidate
   is simulated anyway (bypassing the structural screens — the lanes
   prove equivalence against the simulator, not the screen heuristics)
   and the fitness must match exactly. *)
let verify_lane (ev : t) (candidate : Verilog.Ast.module_decl) ~lane
    (served : outcome) : unit =
  if ev.cfg.check_pruning then begin
    let actual = simulate_candidate ev candidate in
    if not (Float.equal served.fitness actual.fitness) then
      failwith
        (Printf.sprintf
           "check-pruning: %s lane served fitness %.9f but simulation \
            scored %.9f (%s)"
           lane served.fitness actual.fitness (status_label actual.status))
  end

(* Resolve a structural cache miss: consult the lanes over [hashes], fall
   back to [fallback] (a fresh or speculative compute). Owns all
   accounting for the miss; sequential, main domain only. *)
let resolve_miss (ev : t) (candidate : Verilog.Ast.module_decl)
    (key : string) ~(hashes : lane_hashes option)
    (fallback : unit -> outcome) : outcome =
  let store sem_opt (o : outcome) =
    Hashtbl.replace ev.cache key o;
    (match sem_opt with
    | Some sem when transferable o.status ->
        if not (Hashtbl.mem ev.sem_tbl sem) then
          Hashtbl.replace ev.sem_tbl sem key
    | _ -> ());
    o
  in
  match lane_probe ev key hashes with
  | Lane_sem (sem, donor) ->
      bump ev Semantic_hits;
      verify_lane ev candidate ~lane:"semantic" donor;
      store (Some sem) donor
  | Lane_dead (sem, seed_o) ->
      bump ev Dead_edit_skips;
      let o = { seed_o with status = Skipped_dead_edit } in
      verify_lane ev candidate ~lane:"dead-edit" o;
      store (Some sem) o
  | Lane_none sem_opt ->
      let outcome = fallback () in
      account ev outcome;
      store sem_opt outcome

let eval_module (ev : t) (candidate : Verilog.Ast.module_decl) : outcome =
  bump ev Lookups;
  let key = key_of ev.cfg candidate in
  match Hashtbl.find_opt ev.cache key with
  | Some o ->
      bump ev Memo_hits;
      o
  | None ->
      resolve_miss ev candidate key ~hashes:(lane_hashes ev candidate)
        (fun () -> compute ev candidate)

let eval_patch (ev : t) (original : Verilog.Ast.module_decl) (p : Patch.t) :
    outcome =
  eval_module ev (Patch.apply original p)

(* Per-signal attribution of an outcome's fitness against the problem's
   oracle, under the configured phi — the breakdown behind the journal's
   [attribution] records. *)
let attribution (ev : t) (o : outcome) : (string * Fitness.signal_score) list =
  Fitness.score_by_signal ~phi:ev.cfg.phi ~expected:ev.problem.oracle
    ~actual:o.trace

(* --- Batched evaluation over a domain pool ------------------------------ *)

type prepared = {
  ev : t;
  candidates : Verilog.Ast.module_decl array;
  keys : string array;
  computed : (string, outcome) Hashtbl.t;
      (* speculative results for keys that were cache misses at prepare
         time; empty on the sequential path *)
  hashes : (string, lane_hashes option) Hashtbl.t;
      (* lane hashes computed while screening the batch, so [commit] does
         not hash the same candidate a second time; empty on the
         sequential path *)
}

let prepare (ev : t) ~(pool : Pool.t)
    (candidates : Verilog.Ast.module_decl array) : prepared =
  let t_prep = if Obs.Trace.enabled () then Obs.Trace.begin_ () else 0 in
  let keys = Array.map (key_of ev.cfg) candidates in
  let computed = Hashtbl.create (Array.length candidates) in
  let hashes = Hashtbl.create (Array.length candidates) in
  if Pool.size pool > 1 then begin
    (* First occurrence of each un-cached key gets scored; duplicates and
       cache hits are resolved at commit time, exactly as the sequential
       path would. Keys the static lanes already serve are not scored
       either: lane state only grows, so a hit probed here is still a hit
       at commit time (the reverse miss merely wastes a speculation). *)
    let to_run = ref [] in
    Array.iteri
      (fun i key ->
        if
          (not (Hashtbl.mem ev.cache key))
          && not (Hashtbl.mem hashes key)
        then begin
          let h = lane_hashes ev candidates.(i) in
          Hashtbl.replace hashes key h;
          match lane_probe ev key h with
          | Lane_sem _ | Lane_dead _ -> ()
          | Lane_none _ ->
              Hashtbl.replace computed key oversize_outcome
                (* claimed; overwritten below *);
              to_run := (key, candidates.(i)) :: !to_run
        end)
      keys;
    let batch = Array.of_list (List.rev !to_run) in
    let outcomes = Pool.map pool (fun (_, c) -> compute ev c) batch in
    Array.iteri
      (fun j (key, _) -> Hashtbl.replace computed key outcomes.(j))
      batch
  end;
  if Obs.Trace.enabled () then
    Obs.Trace.complete ~cat:"eval"
      ~args:
        [
          ("batch", Obs.Json.Int (Array.length candidates));
          ("speculated", Obs.Json.Int (Hashtbl.length computed));
        ]
      ~name:"eval.prepare_batch" t_prep;
  { ev; candidates; keys; computed; hashes }

(* Commit candidate [i]: byte-for-byte the accounting of [eval_module],
   with the simulation replaced by the speculative result when one was
   prepared. On a pool of size 1 nothing was prepared, so this IS
   [eval_module]. Commit order defines the sequential semantics: callers
   must commit in batch index order and may stop early (un-committed
   speculative work is discarded, leaving cache and counters exactly as a
   sequential run would). *)
let commit (p : prepared) (i : int) : outcome =
  let ev = p.ev in
  bump ev Lookups;
  let key = p.keys.(i) in
  match Hashtbl.find_opt ev.cache key with
  | Some o ->
      bump ev Memo_hits;
      o
  | None ->
      let hashes =
        match Hashtbl.find_opt p.hashes key with
        | Some h -> h
        | None -> lane_hashes ev p.candidates.(i)
      in
      resolve_miss ev p.candidates.(i) key ~hashes (fun () ->
          match Hashtbl.find_opt p.computed key with
          | Some o -> o
          | None -> compute ev p.candidates.(i))
