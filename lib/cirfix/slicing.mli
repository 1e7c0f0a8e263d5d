(** Slice-based repair support: bridges {!Verilog.Slice} into the repair
    engines ({!Gp}, {!Brute_force}).

    {!prepare} derives a sliced repair problem from a whole-design one:
    the backward cone of the mismatching outputs is extracted as a
    standalone module, the testbench instance is rewired to it, and the
    oracle is restricted to the slice's outputs. Mutation, localization
    and per-candidate simulation then run on the slice, which is strictly
    smaller — {!prepare} returns [None] whenever slicing cannot help
    (target is not the DUT module, or the cone covers the whole design),
    and the engine falls back to whole-design repair.

    Soundness rests on two facts. First, the repair slice is {e exact}:
    it is closed under fan-in, so for a fixed testbench its in-cone
    outputs simulate byte-identically to the whole design — a candidate
    that repairs the slice's outputs is a genuine candidate, not an
    artifact of the cut. Second, every slice-plausible
    candidate is {e stitched} back into the whole module ({!stitch} —
    kept statements retain their node ids, so the patch applies
    unchanged) and re-verified against the full oracle by the caller
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

val prepare : Evaluate.t -> t option
(** [prepare whole_ev] slices [whole_ev.problem]. Simulates the seed
    through [whole_ev] (priming its memo cache for the stitched
    verifications that follow), seeds the cone with the mismatching
    output ports plus any outputs the testbench reads back (reactive
    stimulus), and extracts a backward-only slice. [None] when the
    problem's DUT instance is not the target module or the slice drops
    nothing. *)

val stitch : t -> Patch.t -> Verilog.Ast.module_decl
(** Apply a slice-found patch to the whole module. *)

val journal_record : t -> (string * Obs.Json.t) list
(** The [slice] journal record: the plan's manifest (outputs, inputs,
    kept/dropped item ids, node and process counts, sizes, structural
    hash), deterministic for a fixed problem and seed. *)
