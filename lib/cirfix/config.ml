(* GP parameters (paper Sec. 4.2). The paper runs popSize=5000 for up to 8
   generations / 12 h wall-clock on VCS; our in-process simulator lets the
   defaults be far smaller while keeping every ratio (thresholds, tournament
   size, elitism) identical. All values are CLI-tunable up to paper scale. *)

type t = {
  jobs : int;
      (* parallelism degree for candidate evaluation: 1 = the sequential
         path (no domains spawned); n > 1 = a pool of n domains scoring
         each proposed batch. Results are independent of [jobs] for a
         fixed seed (see DESIGN.md, "Parallel evaluation"). *)
  pop_size : int;
  max_generations : int;
  rt_threshold : float; (* probability of applying a repair template *)
  mut_threshold : float; (* mutation vs crossover split *)
  del_threshold : float; (* mutation sub-type split: delete *)
  ins_threshold : float; (* insert *)
  rep_threshold : float; (* replace *)
  tournament_size : int;
  elitism : float; (* fraction of top candidates carried over *)
  phi : float; (* x/z penalty weight in the fitness function *)
  seed : int;
  max_sim_steps : int; (* per-candidate simulation statement budget *)
  max_sim_time : int; (* per-candidate simulated-time horizon *)
  max_wall_seconds : float; (* resource bound for one trial *)
  max_probes : int; (* fitness evaluation budget for one trial *)
  use_fix_loc : bool; (* ablation A1: restrict insert/replace sources *)
  use_templates : bool;
  use_fault_loc : bool; (* when false, every statement is a target *)
  screen_checks : Verilog.Analysis.check list;
      (* pre-simulation static screening: the analyses run on every
         mutant, which is rejected (scored like a compile error) without
         being simulated when one fires; keep this to cheap checks whose
         findings imply a wasted simulation, [] to screen nothing *)
  screen_races : bool;
      (* pre-simulation race screening: candidate modules containing a race
         hazard (Verilog.Race) are rejected without being simulated, under
         their own statistic (Rejected_racy) *)
  prune : bool;
      (* static pruning lanes: fold semantically-equivalent candidates onto
         already-scored ones (Verilog.Canon) and skip provably-dead edits
         (Verilog.Dataflow) without simulating; disabled automatically when
         the target takes parameter overrides *)
  check_pruning : bool;
      (* verification mode: every static-lane decision is double-checked by
         simulating the candidate anyway and asserting fitness equality —
         slow, for differential testing only *)
}

(* One evaluation domain per recommended core, minus one for the main
   (proposing) domain, clamped to [1, 16]. On small machines this is 1,
   i.e. the sequential path. *)
let default_jobs () =
  max 1 (min 16 (Domain.recommended_domain_count () - 1))

let default =
  {
    jobs = default_jobs ();
    pop_size = 40;
    max_generations = 12;
    rt_threshold = 0.2;
    mut_threshold = 0.7;
    del_threshold = 0.3;
    ins_threshold = 0.3;
    rep_threshold = 0.4;
    tournament_size = 5;
    elitism = 0.05;
    phi = 2.0;
    seed = 1;
    max_sim_steps = 150_000;
    max_sim_time = 200_000;
    max_wall_seconds = 120.0;
    max_probes = 4_000;
    use_fix_loc = true;
    use_templates = true;
    use_fault_loc = true;
    screen_checks = [ Verilog.Analysis.Comb_loop ];
    (* Race screening is opt-in: it narrows the search space beyond what
       the paper's loop does. *)
    screen_races = false;
    prune = true;
    check_pruning = false;
  }

(* Configuration fields recorded in a repair journal's run header.
   [jobs] is deliberately absent: journal content (minus wall-times) must
   be byte-identical across parallelism degrees, and the parallelism
   degree is the one knob that may differ between otherwise identical
   runs. *)
let journal_fields (t : t) : (string * Obs.Json.t) list =
  [
    ("seed", Obs.Json.Int t.seed);
    ("pop_size", Obs.Json.Int t.pop_size);
    ("max_generations", Obs.Json.Int t.max_generations);
    ("max_probes", Obs.Json.Int t.max_probes);
    ("phi", Obs.Json.Float t.phi);
    ("screen_races", Obs.Json.Bool t.screen_races);
    ("prune", Obs.Json.Bool t.prune);
    ("check_pruning", Obs.Json.Bool t.check_pruning);
  ]

(* The paper's full-scale configuration, for completeness. *)
let paper_scale =
  {
    default with
    pop_size = 5000;
    max_generations = 8;
    max_wall_seconds = 12.0 *. 3600.0;
    max_probes = max_int;
  }
