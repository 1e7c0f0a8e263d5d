(* The main CirFix loop (paper Algorithm 1): genetic programming over
   repair patches with tournament selection, elitism, repair templates,
   mutation, crossover, per-parent re-localization, and delta-debugging
   minimization of the winning patch.

   Each generation runs as propose-batch -> evaluate -> select. Proposal
   (every RNG draw: tournament picks, mutation choices, crossover) and
   candidate materialization happen sequentially on the main domain, so a
   fixed seed yields one mutant stream regardless of [cfg.jobs]; the
   materialized batch is then scored across a domain pool and committed in
   batch index order ("first plausible repair" = lowest index), which makes
   the result — patch, probe count, generation stats — independent of the
   parallelism degree.

   When a journal is open the loop additionally explains itself: a
   [localization] record for the original design (Alg. 2 output with
   suspiciousness weights and a source heatmap), an [attribution] record
   per generation (per-signal fitness breakdown of the best candidate), a
   [lineage] record reconstructing the winning patch's genealogy from
   per-candidate provenance (operator, target node, parent hashes), and a
   terminal [run_end] record so `tail -f` consumers can detect completion.
   All of it derives from sequentially-committed state, so the journal
   stays byte-identical across [jobs]. *)

type candidate = {
  patch : Patch.t;
  outcome : Evaluate.outcome;
}

type generation_stats = {
  gen : int;
  best_fitness : float;
  mean_fitness : float;
  probes_so_far : int;
  lookups_so_far : int;
  memo_hits_so_far : int;
}

type result = {
  repaired : candidate option; (* first plausible repair found *)
  minimized : Patch.t option;
  repaired_module : Verilog.Ast.module_decl option;
  generations : generation_stats list; (* oldest first *)
  counters : Evaluate.counters; (* the search evaluator's final table *)
  probes : int;
  lookups : int;
  memo_hits : int;
  semantic_hits : int;
  dead_edit_skips : int;
  sims_event : int;
  sims_compiled : int;
  compiled_fallbacks : int;
  sim_seconds_event : float;
  sim_seconds_compiled : float;
  lane_seconds : float;
  mutants_generated : int;
  wall_seconds : float;
  initial_fitness : float;
  sliced : bool; (* slice-based repair actually engaged *)
  stitched_verifies : int; (* whole-design re-verifications of winners *)
}

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Tournament selection (paper Sec. 3.5): the fittest of [t] random picks.
   Fitness ties break toward shorter patches (parsimony pressure), which
   keeps the population from drifting into junk edits while the search has
   not yet found any gradient. *)
let better (a : candidate) (b : candidate) =
  a.outcome.fitness > b.outcome.fitness
  || (a.outcome.fitness = b.outcome.fitness
     && List.length a.patch < List.length b.patch)

(* Index into the population, so callers can look up per-candidate data
   (e.g. the precomputed structural hashes behind lineage tracking)
   without rehashing. Draw count and draw order are unchanged from the
   candidate-returning version — the mutant stream is seed-stable. *)
let tournament_idx rng (cfg : Config.t) (popn : candidate array) : int =
  let best = ref (Random.State.int rng (Array.length popn)) in
  for _ = 2 to cfg.tournament_size do
    let i = Random.State.int rng (Array.length popn) in
    if better popn.(i) popn.(!best) then best := i
  done;
  !best

(* --- Provenance and lineage ----------------------------------------------

   Every proposed candidate carries how it was made: the operator (a
   template name, a mutation kind, or crossover), the AST node it targeted,
   and the structural hashes of its parent(s). Provenance is recorded —
   only while a journal is open — into a table keyed by the candidate's
   materialized structural hash; at the end of a successful run the
   winner's genealogy is reconstructed by walking parent hashes back to the
   seed and emitted as a [lineage] journal record. Distinct patches that
   materialize to the same program share one node (first proposal wins),
   mirroring how the memo cache shares their evaluation. *)

type prov = {
  p_op : string; (* "seed" | "delete" | "insert" | "replace"
                    | "template:<name>" | "crossover" *)
  p_target : int option; (* AST node id the edit targeted *)
  p_parents : string list; (* structural hashes of the parent(s) *)
}

type lineage_node = {
  l_op : string;
  l_target : int option;
  l_parents : string list;
  l_gen : int;
  l_fitness : float;
}

let prov_of_edit ~(parents : string list) (e : Patch.edit) : prov =
  match e with
  | Patch.Delete id -> { p_op = "delete"; p_target = Some id; p_parents = parents }
  | Patch.Insert (id, _) ->
      { p_op = "insert"; p_target = Some id; p_parents = parents }
  | Patch.Replace (id, _) ->
      { p_op = "replace"; p_target = Some id; p_parents = parents }
  | Patch.Template (tpl, id, _) ->
      {
        p_op = "template:" ^ Templates.to_string tpl;
        p_target = Some id;
        p_parents = parents;
      }

let record_lineage (tbl : (string, lineage_node) Hashtbl.t) ~(hash : string)
    ~(prov : prov) ~(gen : int) ~(fitness : float) : unit =
  if not (Hashtbl.mem tbl hash) then
    Hashtbl.add tbl hash
      {
        l_op = prov.p_op;
        l_target = prov.p_target;
        l_parents = prov.p_parents;
        l_gen = gen;
        l_fitness = fitness;
      }

(* Genealogy of [winner]: every lineage node reachable through parent
   hashes, sorted by (generation, hash) for deterministic emission. *)
let genealogy (tbl : (string, lineage_node) Hashtbl.t) (winner : string) :
    (string * lineage_node) list =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec walk hash =
    if not (Hashtbl.mem seen hash) then begin
      Hashtbl.add seen hash ();
      match Hashtbl.find_opt tbl hash with
      | None -> () (* parent predates tracking; genealogy stops here *)
      | Some node ->
          acc := (hash, node) :: !acc;
          List.iter walk node.l_parents
    end
  in
  walk winner;
  List.sort
    (fun (h1, n1) (h2, n2) -> compare (n1.l_gen, h1) (n2.l_gen, h2))
    !acc

let journal_lineage ~(winner : string)
    (nodes : (string * lineage_node) list) : unit =
  let nodes =
    nodes
    |> List.map (fun (hash, n) ->
           Obs.Json.Obj
             [
               ("hash", Obs.Json.Str hash);
               ("op", Obs.Json.Str n.l_op);
               ( "target",
                 match n.l_target with
                 | None -> Obs.Json.Null
                 | Some id -> Obs.Json.Int id );
               ( "parents",
                 Obs.Json.List
                   (List.map (fun h -> Obs.Json.Str h) n.l_parents) );
               ("gen", Obs.Json.Int n.l_gen);
               ("fitness", Obs.Json.Float n.l_fitness);
             ])
  in
  Obs.Journal.emit
    [
      ("type", Obs.Json.Str "lineage");
      ("winner", Obs.Json.Str winner);
      ("nodes", Obs.Json.List nodes);
    ]

(* --- Search funnel --------------------------------------------------------

   Per-operator funnel counters: every proposal is counted through
   proposed -> screened/pruned -> simulated -> survived selection ->
   in-winner-lineage, keyed by the provenance operator string ("seed",
   "delete", "insert", "replace", "template:<name>", "crossover", plus
   the accounting pseudo-operator "minimize" for evaluator work after the
   proposal stream). All bumps happen on sequentially-committed state, so
   the funnel is byte-identical across [jobs].

   Stage semantics (each evaluated proposal lands in exactly one, by
   construction of the evaluator's disposition counters):
   - proposed: the operator emitted this candidate;
   - evaluated: the candidate was committed (early stop discards the rest);
   - screened: rejected before simulation (compile / static / oversize /
     race screens);
   - pruned: served without a fresh simulation (memo hit, semantic twin,
     provably-dead edit);
   - simulated: a fresh simulation was paid for it;
   - survived: carried forward by elitism (one bump per candidate per
     generation survived);
   - in_lineage: the candidate appears in the winner's genealogy.

   Summed over operators, evaluated = run_end.evals, simulated =
   run_end.probes, and screened / pruned = the sums of the
   [Evaluate.screened] / [Evaluate.pruned] counter groups — the
   reconciliation the funnel test checks. (Under [check_pruning] the
   lanes simulate anyway, so a single candidate may count in both pruned
   and simulated; the per-counter sums above still hold.) *)

type funnel_row = {
  mutable f_proposed : int;
  mutable f_evaluated : int;
  mutable f_screened : int;
  mutable f_pruned : int;
  mutable f_simulated : int;
  mutable f_survived : int;
  mutable f_lineage : int;
}

type funnel = {
  tbl : (string, funnel_row) Hashtbl.t;
  mutable snap : Evaluate.counters; (* counters at the last charge *)
}

let funnel_get (f : funnel) (op : string) : funnel_row =
  match Hashtbl.find_opt f.tbl op with
  | Some r -> r
  | None ->
      let r =
        {
          f_proposed = 0;
          f_evaluated = 0;
          f_screened = 0;
          f_pruned = 0;
          f_simulated = 0;
          f_survived = 0;
          f_lineage = 0;
        }
      in
      Hashtbl.add f.tbl op r;
      r

(* Charge the counter movement since the last snapshot to [op], then
   re-snapshot. Deltas are 0/1 per commit; the "minimize" row charges the
   whole minimization phase in one aggregate step. *)
let funnel_charge (f : funnel) (ev : Evaluate.t) (op : string) : unit =
  let now = Evaluate.counters ev in
  let d = Evaluate.diff now f.snap in
  let r = funnel_get f op in
  r.f_evaluated <- r.f_evaluated + Evaluate.get d Lookups;
  r.f_simulated <- r.f_simulated + Evaluate.get d Probes;
  r.f_screened <- r.f_screened + Evaluate.sum d Evaluate.screened;
  r.f_pruned <- r.f_pruned + Evaluate.sum d Evaluate.pruned;
  f.snap <- now

let funnel_rows (f : funnel) : (string * funnel_row) list =
  Hashtbl.fold (fun op r acc -> (op, r) :: acc) f.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let funnel_total (f : funnel) (field : funnel_row -> int) : int =
  Hashtbl.fold (fun _ r acc -> acc + field r) f.tbl 0

let journal_funnel (f : funnel) : unit =
  let operators =
    funnel_rows f
    |> List.map (fun (op, r) ->
           Obs.Json.Obj
             [
               ("op", Obs.Json.Str op);
               ("proposed", Obs.Json.Int r.f_proposed);
               ("evaluated", Obs.Json.Int r.f_evaluated);
               ("screened", Obs.Json.Int r.f_screened);
               ("pruned", Obs.Json.Int r.f_pruned);
               ("simulated", Obs.Json.Int r.f_simulated);
               ("survived", Obs.Json.Int r.f_survived);
               ("in_lineage", Obs.Json.Int r.f_lineage);
             ])
  in
  Obs.Journal.emit
    [
      ("type", Obs.Json.Str "funnel"); ("operators", Obs.Json.List operators);
    ]

(* --- Journal records ------------------------------------------------------ *)

(* Journal record for one finished generation. Everything here is derived
   from state the determinism contract already covers (population, memo
   counters), so the journal is byte-identical across [jobs] — except
   [elapsed_s], which consumers must strip before comparing. Diversity is
   the number of structurally distinct programs in the population, counted
   over [hashes], the members' structural hashes (slot-aligned with
   [popn]). *)
let journal_generation (ev : Evaluate.t) (popn : candidate array)
    ~(hashes : string array) ~(gen : int) ~(mutants : int) ~(found : bool)
    ~(elapsed : float) : unit =
  let fits = Array.map (fun c -> c.outcome.fitness) popn in
  Array.sort compare fits;
  let n = Array.length fits in
  let fl = Array.to_list fits in
  let diversity =
    let seen = Hashtbl.create (Array.length hashes) in
    Array.iter (fun h -> Hashtbl.replace seen h ()) hashes;
    Hashtbl.length seen
  in
  Obs.Journal.emit
    ([
      ("type", Obs.Json.Str "generation");
      ("gen", Obs.Json.Int gen);
      ("best", Obs.Json.Float (if found then 1.0 else if n = 0 then 0. else fits.(n - 1)));
      ("median", Obs.Json.Float (Stats.median fl));
      ("mean", Obs.Json.Float (mean fl));
      ("worst", Obs.Json.Float (if n = 0 then 0. else fits.(0)));
      ("diversity", Obs.Json.Int diversity);
      ("population", Obs.Json.Int n);
      ("mutants", Obs.Json.Int mutants);
    ]
    @ Evaluate.journal_fields ~final:false (Evaluate.counters ev)
    @ [ ("elapsed_s", Obs.Json.Float elapsed) ])

(* Per-signal fitness attribution of one candidate (paper Sec. 3.2, per
   output wire): which signals drag the score down, and from which sample
   timestamp onward. Emitted for the best candidate of each generation
   (and for the seed design as gen 0). *)
let journal_attribution (ev : Evaluate.t) (c : candidate) ~(gen : int) : unit =
  let signals =
    Evaluate.attribution ev c.outcome
    |> List.map (fun (name, (s : Fitness.signal_score)) ->
           Obs.Json.Obj
             [
               ("name", Obs.Json.Str name);
               ("sum", Obs.Json.Float s.s_sum);
               ("total", Obs.Json.Float s.s_total);
               ("fitness", Obs.Json.Float s.s_fitness);
               ( "first_divergence",
                 match s.first_divergence with
                 | None -> Obs.Json.Null
                 | Some t -> Obs.Json.Int t );
             ])
  in
  Obs.Journal.emit
    [
      ("type", Obs.Json.Str "attribution");
      ("gen", Obs.Json.Int gen);
      ("fitness", Obs.Json.Float c.outcome.fitness);
      ("status", Obs.Json.Str (Evaluate.status_label c.outcome.status));
      ("signals", Obs.Json.List signals);
    ]

(* Fault-localization export for the original design: the implicated node
   set with suspiciousness weights (1/round of implication) and the
   pretty-printed source with per-line heat, so a report can render the
   Alg. 2 heatmap without re-running the analysis. *)
let journal_localization (index : Index.t) ~(mismatch : string list) : unit =
  let r = Fault_loc.localize_index index ~mismatch in
  let nodes =
    Fault_loc.IdMap.bindings r.rounds
    |> List.map (fun (id, round) ->
           Obs.Json.Obj
             [
               ("id", Obs.Json.Int id);
               ("round", Obs.Json.Int round);
               ("weight", Obs.Json.Float (Fault_loc.suspiciousness r id));
             ])
  in
  let source =
    Fault_loc.heat_lines index.decl r
    |> List.map (fun (text, weight) ->
           Obs.Json.Obj
             [
               ("text", Obs.Json.Str text); ("weight", Obs.Json.Float weight);
             ])
  in
  Obs.Journal.emit
    [
      ("type", Obs.Json.Str "localization");
      ( "mismatch",
        Obs.Json.List (List.map (fun s -> Obs.Json.Str s) mismatch) );
      ("iterations", Obs.Json.Int r.iterations);
      ("implicated", Obs.Json.Int (Fault_loc.IdSet.cardinal r.fl));
      ("nodes", Obs.Json.List nodes);
      ("source", Obs.Json.List source);
    ]

(* --- The repair loop ------------------------------------------------------ *)

(* What [localize_parent] returns: the parent's proposal index, its
   mutation targets (the fault-localized statements a mutation may edit)
   and, per template, the node ids a template draw targets. *)
type localized = {
  index : Index.t;
  targets : Verilog.Ast.stmt array;
  sites : Templates.t -> Verilog.Ast.id array;
}

(* Fault-localize a parent whose proposal index is [index]: run Algorithm
   2 against the parent's own mismatch set -- CirFix re-localizes per
   parent to support dependent multi-edit repairs (paper Sec. 3). The
   result is a function of the parent's patch alone, so [repair] computes
   it once per distinct patch (see [Patch_table]). [focus] is the slicing
   backward/forward intersection (Slicing.focus): when narrowing the
   localization to it leaves something, mutation targets shrink to the
   nodes both upstream of the mismatch and downstream of the suspicious
   set; when the intersection is empty the localization stands, so focus
   never empties the target set. *)
let localize_parent (ev : Evaluate.t) (cfg : Config.t)
    ~(focus : Fault_loc.IdSet.t) (index : Index.t) (parent : candidate) :
    localized =
  let narrow (stmts, fl) =
    if Fault_loc.IdSet.is_empty focus then (stmts, fl)
    else
      let stmts' =
        List.filter
          (fun (s : Verilog.Ast.stmt) -> Fault_loc.IdSet.mem s.sid focus)
          stmts
      in
      let fl' = Fault_loc.IdSet.inter fl focus in
      if stmts' = [] || Fault_loc.IdSet.is_empty fl' then (stmts, fl)
      else (stmts', fl')
  in
  let everything () =
    let stmts =
      Array.to_list (Array.map (fun (f : Index.stmt_facts) -> f.stmt) index.stmts)
    in
    narrow
      ( stmts,
        Fault_loc.IdSet.of_list
          (List.map (fun (s : Verilog.Ast.stmt) -> s.sid) stmts) )
  in
  let stmts, fl =
    if not cfg.use_fault_loc then everything ()
    else
      let mismatch =
        match parent.outcome.status with
        | Evaluate.Simulated | Evaluate.Sim_diverged _
        | Evaluate.Skipped_dead_edit ->
            (* A dead-edit skip carries the seed's trace, which is exactly
               the candidate's own behaviour (the edit was proved dead). *)
            Fitness.mismatched_signals ~expected:ev.problem.oracle
              ~actual:parent.outcome.trace
        | Evaluate.Compile_error _ | Evaluate.Rejected_static _
        | Evaluate.Rejected_oversize | Evaluate.Rejected_racy _ ->
            (* Nothing simulated: blame every recorded output. *)
            Oracle.signal_names ev.problem.oracle
      in
      let fl = Fault_loc.implicated_ids index ~mismatch in
      match Fault_loc.implicated index fl with
      | [] ->
          (* An empty localization (e.g. mismatch names never assigned)
             would stall the search; widen to all statements. *)
          everything ()
      | fl_stmts -> narrow (fl_stmts, fl)
  in
  { index; targets = Mutate.targets stmts; sites = Mutate.template_sites index ~fl }

(* Edits as trie edges (see [Patch.equal_edit]). *)
module Edit_tbl = Hashtbl.Make (struct
  type t = Patch.edit

  let equal = Patch.equal_edit
  let hash = Patch.hash_edit
end)

(* The per-run patch table: a trie of edits with one entry per patch
   reached so far. An entry carries the patch's memo key once the patch
   has been proposed and, once it has been a parent, its [localize_parent]
   result. A patch determines its module ([Patch.apply] is pure) and,
   through the evaluator's memo (one stored outcome per key, returned on
   every later lookup), its outcome; so a repeated proposal -- most
   proposals are -- takes its key from here, with no [Patch.apply] and no
   structural hash, and a stored localization is exactly what a fresh one
   would return. A mutation or template child is one edge lookup from its
   parent's entry; a crossover child is a walk from the root. Only
   first-seen patches are materialized and hashed, as pool tasks, each
   from its nearest localized ancestor's module by the edits below it; a
   repeated patch's module is materialized again only when something needs
   it (a memo miss, a localization). The key is the patch itself, not the
   module's structural hash: that hash ignores node ids, which the stored
   localization carries and [Mutate] draws from. *)
module Patch_table = struct
  type state =
    | Unseen  (* on the path of a proposed patch, never proposed itself *)
    | Queued of int  (* first seen in the batch being resolved *)
    | Key of string

  type entry = {
    up : (entry * Patch.edit) option;  (* parent entry and the edge's edit *)
    mutable state : state;
    mutable loc : localized option;
    mutable children : entry Edit_tbl.t option;
  }

  type t = {
    original : Verilog.Ast.module_decl;
    seed : Index.t;  (* the original's proposal index, built once *)
    root : entry;  (* the empty patch *)
  }

  let create (original : Verilog.Ast.module_decl) : t =
    {
      original;
      seed = Index.of_module original;
      root =
        {
          up = None;
          state = Key (Evaluate.key_of original);
          loc = None;
          children = None;
        };
    }

  let child (e : entry) (edit : Patch.edit) : entry =
    let tbl =
      match e.children with
      | Some tbl -> tbl
      | None ->
          let tbl = Edit_tbl.create 4 in
          e.children <- Some tbl;
          tbl
    in
    match Edit_tbl.find_opt tbl edit with
    | Some c -> c
    | None ->
        let c = { up = Some (e, edit); state = Unseen; loc = None; children = None } in
        Edit_tbl.add tbl edit c;
        c

  let find (t : t) (p : Patch.t) : entry = List.fold_left child t.root p

  (* The key of a patch already resolved (every population member's). *)
  let key (e : entry) : string =
    match e.state with
    | Key k -> k
    | Unseen | Queued _ -> invalid_arg "Patch_table.key: unresolved patch"

  (* The module of [e]'s patch: [Patch.apply] of the original, computed
     from the nearest ancestor whose module a localization kept. *)
  let rec materialize (t : t) (e : entry) : Verilog.Ast.module_decl =
    match (e.loc, e.up) with
    | Some l, _ -> l.index.decl
    | None, None -> t.original
    | None, Some (p, edit) -> Patch.extend (materialize t p) edit

  (* [e]'s proposal index, derived from its nearest localized ancestor's
     (the seed's at the root): only the items the edits below that
     ancestor touched are indexed. *)
  let index (t : t) (e : entry) : Index.t =
    let rec base (e : entry) =
      match e.up with
      | None -> t.seed
      | Some (p, _) -> ( match p.loc with Some l -> l.index | None -> base p)
    in
    Index.of_module ~base:(base e) (materialize t e)

  let resolve_entries (t : t) ~(pool : Pool.t) (batch : entry array) :
      Evaluate.candidate array =
    let order = ref [] and n = ref 0 in
    Array.iter
      (fun e ->
        match e.state with
        | Unseen ->
            e.state <- Queued !n;
            incr n;
            order := e :: !order
        | Queued _ | Key _ -> ())
      batch;
    let first_seen = Array.of_list (List.rev !order) in
    let made =
      Pool.map pool (fun e -> Evaluate.candidate (materialize t e)) first_seen
    in
    let cands =
      Array.map
        (fun e ->
          match e.state with
          | Queued j -> made.(j)
          | Key k ->
              { Evaluate.c_key = k; c_module = lazy (materialize t e) }
          | Unseen -> assert false)
        batch
    in
    Array.iteri (fun j e -> e.state <- Key made.(j).c_key) first_seen;
    cands

  let resolve (t : t) ~(pool : Pool.t) (batch : Patch.t array) :
      Evaluate.candidate array =
    resolve_entries t ~pool (Array.map (find t) batch)
end

(* One proposed child: its patch, its patch-table entry and how it was
   made. *)
type proposal = {
  pr_patch : Patch.t;
  pr_entry : Patch_table.entry;
  pr_prov : prov;
}

(* A float read from a record is that record's box; this one is new. *)
let fresh_float (x : float) = Float.Array.get (Float.Array.make 1 x) 0

let site_generation = Obs.Profile.site ~span:"gp" "gp.generation"
let site_propose = Obs.Profile.site ~span:"gp" "gp.propose"
let site_select = Obs.Profile.site ~span:"gp" "gp.select"
let site_minimize = Obs.Profile.site ~span:"gp" "gp.minimize"

let repair ?(on_generation : (generation_stats -> unit) option)
    (cfg : Config.t) (whole_problem : Problem.t) : result =
  let rng = Random.State.make [| cfg.seed |] in
  let t0 = Obs.Clock.now_ns () in
  (* When the slicer finds a strictly smaller exact slice, the search
     (mutation, localization, candidate simulation) runs on it and
     plausible winners are re-verified on the whole design; otherwise
     [ev] is the whole design's evaluator. *)
  let sl = Slicing.start cfg whole_problem in
  let ev = sl.ev in
  let problem = ev.problem in
  let focus =
    match sl.slice with
    | Some s -> s.Slicing.focus
    | None -> Fault_loc.IdSet.empty
  in
  let original = Problem.target_module problem in
  let mutants = ref 0 in
  let gen_stats = ref [] in
  let out_of_resources () =
    Obs.Clock.seconds_since t0 > cfg.max_wall_seconds
    || Evaluate.get ev.table Probes >= cfg.max_probes
  in
  let patches = Patch_table.create original in
  let localize (e : Patch_table.entry) (parent : candidate) =
    match e.loc with
    | Some l -> l
    | None ->
        let l =
          localize_parent ev cfg ~focus (Patch_table.index patches e) parent
        in
        e.loc <- Some l;
        l
  in
  (* Lineage is journal-only state: the hashing it needs is paid only when
     a journal is open, once per committed candidate; the same hashes feed
     [journal_generation]'s diversity count. The funnel follows the same
     gate: it is observable only through the journal, so it is tracked
     only while one is open. *)
  let lineage : (string, lineage_node) Hashtbl.t = Hashtbl.create 64 in
  let track = Obs.Journal.enabled () in
  let funnel = { tbl = Hashtbl.create 16; snap = Evaluate.zero } in
  (* Operator and structural hash of each population slot, parallel to
     [popn] while a journal is open. The operator credits elitism survival
     to the operator that made the survivor; the hash names the slot as a
     lineage parent ("" when no journal is open). *)
  let popn_ops = ref (Array.make (max cfg.pop_size 1) "seed") in
  let popn_hashes =
    ref
      (Array.make (max cfg.pop_size 1)
         (if track then Patch_table.key patches.root else ""))
  in
  (* Each population slot's patch-table entry, parallel to [popn]. *)
  let popn_entries = ref (Array.make (max cfg.pop_size 1) patches.root) in
  let slot_hash i = if track then (!popn_hashes).(i) else "" in
  if Obs.Journal.enabled () then
    Obs.Journal.emit
      ([
         ("type", Obs.Json.Str "run");
         ("engine", Obs.Json.Str "gp");
         ("problem", Obs.Json.Str problem.name);
       ]
      @ Config.journal_fields cfg);
  Slicing.journal sl;
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->

  let initial = { patch = []; outcome = sl.seed } in
  if track then begin
    let r = funnel_get funnel "seed" in
    r.f_proposed <- r.f_proposed + 1;
    funnel_charge funnel ev "seed"
  end;
  let found =
    ref
      (if initial.outcome.fitness >= 1.0 && Slicing.accept sl initial.patch then
         Some initial
       else None)
  in
  if Obs.Journal.enabled () then begin
    let mismatch =
      Fitness.mismatched_signals ~expected:ev.problem.oracle
        ~actual:initial.outcome.trace
    in
    journal_localization patches.seed ~mismatch;
    journal_attribution ev initial ~gen:0;
    record_lineage lineage ~hash:(!popn_hashes).(0)
      ~prov:{ p_op = "seed"; p_target = None; p_parents = [] }
      ~gen:0 ~fitness:initial.outcome.fitness
  end;

  (* seed_popn(C, popnSize): the population starts as copies of the faulty
     circuit (Alg. 1 line 1); generation 1 then explores pop_size fresh
     single edits around it. *)
  let popn = ref (Array.make (max cfg.pop_size 1) initial) in

  let gen = ref 0 in
  while !found = None && !gen < cfg.max_generations && not (out_of_resources ()) do
    incr gen;
    let on = Obs.Profile.recording () in
    if on then Obs.Profile.enter site_generation;
    let t_gen_wall = Obs.Clock.now_ns () in
    (* Propose: all RNG draws and patch materialization, sequentially on
       the main domain. (The wall-clock guard mirrors the sequential
       loop's: a generation stops growing when the trial is out of time.) *)
    if on then Obs.Profile.enter site_propose;
    let proposals = ref [] in
    let child_count = ref 0 in
    while !child_count < cfg.pop_size && not (out_of_resources ()) do
      let pi = tournament_idx rng cfg !popn in
      let parent = (!popn).(pi) in
      let pe = (!popn_entries).(pi) in
      let parents = [ slot_hash pi ] in
      let l = localize pe parent in
      let edited = function
        | Some e ->
            [
              {
                pr_patch = parent.patch @ [ e ];
                pr_entry = Patch_table.child pe e;
                pr_prov = prov_of_edit ~parents e;
              };
            ]
        | None -> []
      in
      let children =
        if cfg.use_templates && Random.State.float rng 1.0 <= cfg.rt_threshold
        then
          (* Repair templates (Alg. 1 line 8). *)
          edited (Mutate.template_index rng l.index ~sites:l.sites)
        else if Random.State.float rng 1.0 <= cfg.mut_threshold then
          edited (Mutate.mutate_index rng cfg l.index ~targets:l.targets)
        else (
          let pi2 = tournament_idx rng cfg !popn in
          let parent2 = (!popn).(pi2) in
          let cross_parents = [ slot_hash pi; slot_hash pi2 ] in
          let c1, c2 = Mutate.crossover rng parent.patch parent2.patch in
          let prov =
            { p_op = "crossover"; p_target = None; p_parents = cross_parents }
          in
          List.map
            (fun c ->
              { pr_patch = c; pr_entry = Patch_table.find patches c; pr_prov = prov })
            [ c1; c2 ])
      in
      List.iter
        (fun (pr : proposal) ->
          incr child_count;
          if track then begin
            let r = funnel_get funnel pr.pr_prov.p_op in
            r.f_proposed <- r.f_proposed + 1
          end;
          proposals := pr :: !proposals)
        children
    done;
    let batch = Array.of_list (List.rev !proposals) in
    let cands =
      Patch_table.resolve_entries patches ~pool
        (Array.map (fun pr -> pr.pr_entry) batch)
    in
    if on then
      Obs.Profile.leave site_propose
        ~args:[ ("proposals", Obs.Json.Int (Array.length batch)) ];
    (* Evaluate: score the batch across the pool, then select by committing
       in batch order with the sequential guards. Stopping at the first
       plausible repair (or on budget exhaustion) discards the remaining
       speculative work, so counters match a jobs=1 run exactly. *)
    let prepared = Evaluate.prepare ev ~pool cands in
    if on then Obs.Profile.enter site_select;
    let child_popn = ref [] in
    let child_entries = ref [] in
    let child_ops = ref [] in
    let child_hashes = ref [] in
    Array.iteri
      (fun i pr ->
        if !found = None && not (out_of_resources ()) then (
          incr mutants;
          let c = { patch = pr.pr_patch; outcome = Evaluate.commit prepared i } in
          if track then funnel_charge funnel ev pr.pr_prov.p_op;
          if track then begin
            let hash = cands.(i).c_key in
            record_lineage lineage ~hash ~prov:pr.pr_prov ~gen:!gen
              ~fitness:c.outcome.fitness;
            child_hashes := hash :: !child_hashes
          end;
          if c.outcome.fitness >= 1.0 && Slicing.accept sl c.patch then
            found := Some c;
          child_ops := pr.pr_prov.p_op :: !child_ops;
          child_entries := pr.pr_entry :: !child_entries;
          child_popn := c :: !child_popn))
      batch;
    if on then Obs.Profile.leave site_select;
    (* Elitism: carry the top e% of the previous generation forward. *)
    let elite_n =
      max 1 (int_of_float (cfg.elitism *. float_of_int cfg.pop_size))
    in
    let sorted = Array.copy !popn in
    Array.sort
      (fun a b ->
        match compare b.outcome.fitness a.outcome.fitness with
        | 0 -> compare (List.length a.patch) (List.length b.patch)
        | c -> c)
      sorted;
    let elites = Array.to_list (Array.sub sorted 0 (min elite_n (Array.length sorted))) in
    (* Elites are physical members of the previous population, so an
       identity scan recovers each one's slot (and thus its entry, operator
       and hash) without re-sorting or rehashing. Survival is credited to
       the operator that made the survivor. *)
    let elite_slots =
      List.map
        (fun e ->
          let slot = ref 0 in
          (try
             Array.iteri
               (fun i c -> if c == e then (slot := i; raise Exit))
               !popn
           with Exit -> ());
          if track then begin
            let r = funnel_get funnel (!popn_ops).(!slot) in
            r.f_survived <- r.f_survived + 1
          end;
          !slot)
        elites
    in
    let next = Array.of_list (elites @ !child_popn) in
    if Array.length next > 0 then begin
      popn := next;
      (* [child_popn] is consed (reverse batch order); [child_entries],
         [child_ops] and [child_hashes] are consed identically, so the
         lists stay slot-aligned. *)
      let carry a children =
        Array.of_list (List.map (fun i -> a.(i)) elite_slots @ children)
      in
      popn_entries := carry !popn_entries !child_entries;
      if track then begin
        popn_ops := carry !popn_ops !child_ops;
        popn_hashes := carry !popn_hashes !child_hashes
      end
    end;
    let fits = Array.to_list (Array.map (fun c -> c.outcome.fitness) !popn) in
    let stats =
      {
        gen = !gen;
        best_fitness =
          (match !found with
          | Some _ -> 1.0
          | None -> List.fold_left Float.max 0. fits);
        mean_fitness = mean fits;
        probes_so_far = Evaluate.get ev.table Probes;
        lookups_so_far = Evaluate.get ev.table Lookups;
        memo_hits_so_far = Evaluate.get ev.table Memo_hits;
      }
    in
    gen_stats := stats :: !gen_stats;
    if Obs.Journal.enabled () then begin
      journal_generation ev !popn ~hashes:!popn_hashes ~gen:!gen
        ~mutants:!mutants ~found:(!found <> None)
        ~elapsed:(Obs.Clock.seconds_since t_gen_wall);
      let best =
        Array.fold_left
          (fun acc c -> if better c acc then c else acc)
          (!popn).(0) !popn
      in
      journal_attribution ev best ~gen:!gen
    end;
    if on then
      Obs.Profile.leave site_generation
        ~args:
          [ ("gen", Obs.Json.Int !gen); ("best", Obs.Json.Float stats.best_fitness) ];
    Option.iter (fun f -> f stats) on_generation
  done;

  (* Minimize against the WHOLE design: on a sliced run every ddmin probe
     then re-verifies on the full oracle, so the minimized patch repairs
     the whole module by construction, not just the slice. *)
  let whole_target = Slicing.whole_target sl in
  let minimized =
    Option.map
      (fun c ->
        Obs.Profile.framed site_minimize (fun () ->
            Minimize.minimize sl.whole_ev whole_target c.patch))
      !found
  in
  (* ddmin probes (on [ev] when the run searched the whole design) land on
     a "minimize" accounting row so the funnel still tiles the run_end
     counters. *)
  let unfunnelled =
    Evaluate.get ev.table Lookups - Evaluate.get funnel.snap Lookups
  in
  if track && unfunnelled > 0 then begin
    funnel_charge funnel ev "minimize";
    let r = funnel_get funnel "minimize" in
    r.f_proposed <- r.f_proposed + unfunnelled
  end;
  let counters = Evaluate.counters ev in
  if Obs.Journal.enabled () then begin
    (* Genealogy of the winner — or, when the search came up empty, of the
       best surviving candidate, which is what a user debugs next. *)
    let focus =
      match !found with
      | Some winner -> Some winner
      | None ->
          if Array.length !popn = 0 then None
          else
            Some
              (Array.fold_left
                 (fun acc c -> if better c acc then c else acc)
                 (!popn).(0) !popn)
    in
    (match focus with
    | Some c ->
        let winner = Patch_table.key (Patch_table.find patches c.patch) in
        let nodes = genealogy lineage winner in
        if track then
          List.iter
            (fun ((_ : string), n) ->
              let r = funnel_get funnel n.l_op in
              r.f_lineage <- r.f_lineage + 1)
            nodes;
        journal_lineage ~winner nodes
    | None -> ());
    Obs.Journal.emit
      [
        ("type", Obs.Json.Str "result");
        ("repaired", Obs.Json.Bool (!found <> None));
        ( "edits",
          match minimized with
          | None -> Obs.Json.Null
          | Some p -> Obs.Json.Int (List.length p) );
        ( "patch",
          match minimized with
          | None -> Obs.Json.Null
          | Some p -> Obs.Json.Str (Patch.to_string p) );
        ("generations", Obs.Json.Int !gen);
        ("probes", Obs.Json.Int (Evaluate.get ev.table Probes));
        ("lookups", Obs.Json.Int (Evaluate.get ev.table Lookups));
        ("memo_hits", Obs.Json.Int (Evaluate.get ev.table Memo_hits));
        ("mutants", Obs.Json.Int !mutants);
        ("wall_seconds", Obs.Json.Float (Obs.Clock.seconds_since t0));
      ];
    journal_funnel funnel;
    (* Terminal record: emitted last so `tail -f` consumers can detect
       completion. [elapsed_s] is the run's wall time, a documented timing
       field excluded (like the generation records') from the cross-[jobs]
       byte-equality contract. *)
    Obs.Journal.emit
      ([
         ("type", Obs.Json.Str "run_end");
         ( "status",
           Obs.Json.Str (if !found <> None then "repaired" else "no_repair") );
         ("elapsed_s", Obs.Json.Float (Obs.Clock.seconds_since t0));
       ]
      @ Evaluate.journal_fields ~final:true counters
      @ [
         ("generations", Obs.Json.Int !gen);
         ("mutants", Obs.Json.Int !mutants);
         ("proposed", Obs.Json.Int (funnel_total funnel (fun r -> r.f_proposed)));
         ("survived", Obs.Json.Int (funnel_total funnel (fun r -> r.f_survived)));
         ( "in_lineage",
           Obs.Json.Int (funnel_total funnel (fun r -> r.f_lineage)) );
       ]
      @ Slicing.run_end_fields sl)
  end;
  (* The result outlives the run, but its parts come from all along it: a
     generation record (with two boxed floats) per generation, the seed's
     fitness from the start, the counter table from the evaluator's
     creation (hence [counters] is a copy). A block promoted on its own
     pins the major-heap pool it landed in, with whatever else the run
     left there, so a process that keeps results (a benchmark, a
     campaign) grew by far more than the results. Built again here, at
     the end, they sit together. *)
  let generations =
    List.rev_map
      (fun g ->
        {
          g with
          best_fitness = fresh_float g.best_fitness;
          mean_fitness = fresh_float g.mean_fitness;
        })
      !gen_stats
  in
  {
    repaired = !found;
    minimized;
    repaired_module = Option.map (Patch.apply whole_target) minimized;
    generations;
    counters;
    mutants_generated = !mutants;
    wall_seconds = Obs.Clock.seconds_since t0;
    initial_fitness = fresh_float initial.outcome.fitness;
    sliced = sl.slice <> None;
    stitched_verifies = sl.stitched;
    (* Flat copies of [counters]. The perfbench harness is kept frozen so
       its numbers stay comparable across changes, and it reads these
       eleven by field name; in-repo code reads [counters]. *)
    probes = Evaluate.get counters Probes;
    lookups = Evaluate.get counters Lookups;
    memo_hits = Evaluate.get counters Memo_hits;
    semantic_hits = Evaluate.get counters Semantic_hits;
    dead_edit_skips = Evaluate.get counters Dead_edit_skips;
    sims_event = Evaluate.get counters Sims_event;
    sims_compiled = Evaluate.get counters Sims_compiled;
    compiled_fallbacks = Evaluate.get counters Compiled_fallbacks;
    sim_seconds_event = Evaluate.seconds counters Sim_seconds_event;
    sim_seconds_compiled = Evaluate.seconds counters Sim_seconds_compiled;
    lane_seconds = Evaluate.seconds counters Lane_seconds;
  }
