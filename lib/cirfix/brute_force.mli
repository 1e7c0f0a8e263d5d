(** The straightforward baseline from the paper's RQ1: breadth-first
    enumeration of edits applied uniformly to the design, with no fault
    localization and no fitness guidance beyond the plausibility check. *)

type result = {
  repaired : Patch.t option;
  counters : Evaluate.counters;
      (** the search evaluator's final counter table (on the sliced
          problem when [sliced]) *)
  wall_seconds : float;
  candidates_tried : int;
  sliced : bool;
      (** slice-based search engaged: the slicer found a strictly
          smaller exact slice ({!Slicing.start}) *)
  stitched_verifies : int;
      (** slice-plausible candidates stitched back into the whole design
          and re-verified on the full oracle before being reported *)
}

(** Live search progress, as seen by the sequential commit loop; the
    values are independent of the parallelism degree. *)
type progress = {
  bp_depth : int;
  bp_tried : int;
  bp_best : float;
  bp_counters : Evaluate.counters;
}

(** Every single edit over the module: deletes, same-class replacements,
    insertions, and template applications at each eligible node. *)
val single_edits : Verilog.Ast.module_decl -> Patch.edit list

(** Enumerate patches up to [max_depth] edits (default 2) under the
    configuration's probe and wall-clock budgets. The sweep is scored in
    chunks across [cfg.jobs] domains; enumeration order, the repair found,
    and all counters are independent of the parallelism degree.
    [on_progress] fires after every committed candidate. *)
val search :
  ?max_depth:int -> ?on_progress:(progress -> unit) -> Config.t -> Problem.t ->
  result
