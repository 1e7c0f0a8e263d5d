(** The main CirFix repair loop (paper Algorithm 1): genetic programming
    over repair patches with tournament selection, elitism, repair
    templates, mutation and crossover, per-parent re-localization, and
    delta-debugging minimization of the first plausible repair found. *)

type candidate = { patch : Patch.t; outcome : Evaluate.outcome }

type generation_stats = {
  gen : int;
  best_fitness : float;
  mean_fitness : float;
  probes_so_far : int;
  lookups_so_far : int;  (** evaluations requested so far, memoized or not *)
  memo_hits_so_far : int;  (** lookups absorbed by the memo cache so far *)
}

type result = {
  repaired : candidate option;  (** first plausible repair, un-minimized *)
  minimized : Patch.t option;  (** one-minimal repair patch *)
  repaired_module : Verilog.Ast.module_decl option;
  generations : generation_stats list;  (** oldest first *)
  counters : Evaluate.counters;
      (** the search evaluator's final counter table (on the sliced
          problem when [sliced]) *)
  (* Flat copies of eleven entries of [counters], kept because the frozen
     perfbench harness reads them by field name. *)
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
  initial_fitness : float;  (** fitness of the unpatched faulty design *)
  sliced : bool;
      (** slice-based repair engaged: the slicer found a strictly smaller
          exact slice ({!Slicing.start}); when false, the run searched the
          whole design *)
  stitched_verifies : int;
      (** slice-plausible candidates stitched back into the whole design
          and re-verified on the full oracle — the slicing acceptance
          gate; includes the winners and any slice-only false positives
          it rejected *)
}

(** The per-run patch table: every proposed patch with its memo key (and,
    once it has been a parent, its localization). A repeated patch takes
    its key from the table without being applied or hashed; only
    first-seen patches are materialized and hashed, as pool tasks. *)
module Patch_table : sig
  type t

  (** An empty table for patches of [original]; the empty patch is
      already in it. *)
  val create : Verilog.Ast.module_decl -> t

  (** The batch's candidates: the key of each patch is
      [Evaluate.key_of (Patch.apply original p)], and its module is
      materialized when forced (at once for first-seen patches). *)
  val resolve : t -> pool:Pool.t -> Patch.t array -> Evaluate.candidate array
end

(** Run one seeded repair trial. Terminates at a plausible repair (fitness
    1.0), or when generations, probes, or wall-clock budget are exhausted.
    [on_generation] observes progress. Candidate batches are evaluated
    across [cfg.jobs] domains; for a fixed seed the result (patch, probes,
    generation stats) is the same for every [jobs] value, provided the
    wall-clock budget does not bind. *)
val repair :
  ?on_generation:(generation_stats -> unit) -> Config.t -> Problem.t -> result
