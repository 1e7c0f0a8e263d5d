(** Slice-based repair support: bridges {!Verilog.Slice} into the repair
    engines ({!Gp}, {!Brute_force}).

    {!start} derives a sliced repair problem from a whole-design one:
    the backward cone of the mismatching outputs is extracted as a
    standalone module, the testbench instance is rewired to it, and the
    oracle is restricted to the slice's outputs. Mutation, localization
    and per-candidate simulation then run on the slice, which is strictly
    smaller. Every engine run calls it; whenever slicing cannot help
    (target is not the DUT module, or the cone covers the whole design),
    the run searches the whole design.

    Soundness rests on two facts. First, the repair slice is {e exact}:
    it is closed under fan-in, so for a fixed testbench its in-cone
    outputs simulate byte-identically to the whole design — a candidate
    that repairs the slice's outputs is a genuine candidate, not an
    artifact of the cut. Second, every slice-plausible
    candidate is {e stitched} back into the whole module ({!stitch} —
    kept statements retain their node ids, so the patch applies
    unchanged) and re-verified against the full oracle ({!accept})
    before being reported. Stitched verification is the acceptance gate:
    slicing can only prune the search, never unsoundly accept. *)

type t = {
  plan : Verilog.Slice.plan;
  whole_target : Verilog.Ast.module_decl;  (** unsliced module under repair *)
  sliced : Problem.t;  (** the slice-substituted repair problem *)
  focus : Fault_loc.IdSet.t;
      (** node ids (statements and expressions) inside kept items that
          also lie in the forward cone of the seed fault-localization
          set — the backward/forward intersection. Engines intersect
          their mutation targets with this set when the intersection is
          nonempty; empty means "no restriction". *)
  mismatch : string list;  (** seed mismatch on the whole design, sorted *)
}

val dut_instance : Sim.Simulate.spec -> string option
(** The DUT instance name when the recorded path is a direct child of the
    testbench top (["tb.dut"] gives ["dut"]); [None] for deeper paths. *)

val stitch : t -> Patch.t -> Verilog.Ast.module_decl
(** Apply a slice-found patch to the whole module. *)

(** {2 The engines' slicing preamble}

    Both engines start a run with {!start}: they search [ev], gate every
    plausible candidate through {!accept}, minimize against
    {!whole_target} on [whole_ev], and append {!run_end_fields} to their
    [run_end] record. Without an engaged slice, [ev] is [whole_ev] and
    every one of these is the whole-design behaviour. *)

type run = {
  whole_ev : Evaluate.t;  (** the whole design's evaluator *)
  ev : Evaluate.t;
      (** the search evaluator: on the slice when [slice] is [Some],
          otherwise [whole_ev] *)
  seed : Evaluate.outcome;  (** the unpatched target's outcome on [ev] *)
  slice : t option;  (** [Some] when slicing engaged *)
  mutable stitched : int;
      (** slice-plausible candidates stitched back into the whole design
          and re-verified so far *)
}

val start : Config.t -> Problem.t -> run
(** Score the unpatched seed on the whole design, then slice: seed the
    cone with the mismatching output ports plus any outputs the
    testbench reads back (reactive stimulus) and extract a backward-only
    slice. The slice engages unless the problem's DUT instance is not
    the target module or the slice drops nothing. When it engages, the
    seed is scored again on a fresh evaluator over the sliced problem;
    otherwise the whole-design seed lookup is the run's one seed
    lookup. *)

val whole_target : run -> Verilog.Ast.module_decl
(** The unsliced module under repair. *)

val accept : run -> Patch.t -> bool
(** The acceptance gate for a candidate that reached fitness 1.0 on [ev]:
    always true without a slice; with one, the patch is stitched into the
    whole module and must reach fitness 1.0 on the full oracle. Engines
    call it from their sequential commit loop, so [whole_ev]'s counters
    and the accepted patch stay independent of [cfg.jobs]. *)

val journal : run -> unit
(** Emit the [slice] journal record when slicing engaged and a journal is
    open: the plan's manifest (outputs, inputs, kept/dropped item ids,
    node and process counts, sizes, structural hash). *)

val run_end_fields : run -> (string * Obs.Json.t) list
(** [slice_sims] and [stitched_verifies] for the [run_end] record when
    slicing engaged; empty otherwise. *)
