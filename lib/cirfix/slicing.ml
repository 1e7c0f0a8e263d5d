(* Slice-based repair support: derive a sliced repair problem from a
   whole-design one, and stitch slice-found patches back for whole-design
   re-verification. See slicing.mli for the soundness argument. *)

module Slice = Verilog.Slice

type t = {
  plan : Slice.plan;
  whole_target : Verilog.Ast.module_decl;
  sliced : Problem.t;
  focus : Fault_loc.IdSet.t;
  mismatch : string list;
}

(* The DUT instance name, when the recorder's path is a direct child of
   the testbench top ("tb.dut" -> "dut"). Deeper paths mean the target is
   a submodule the slicer cannot rewire from the top testbench. *)
let dut_instance (spec : Sim.Simulate.spec) : string option =
  let prefix = spec.top ^ "." in
  let plen = String.length prefix in
  if
    String.length spec.dut_path > plen
    && String.sub spec.dut_path 0 plen = prefix
    && not (String.contains_from spec.dut_path plen '.')
  then Some (String.sub spec.dut_path plen (String.length spec.dut_path - plen))
  else None

let find_module (design : Verilog.Ast.design) (name : string) =
  List.find_opt (fun (m : Verilog.Ast.module_decl) -> m.mod_id = name) design

(* Every node id (item, statement, expression) inside the given items —
   the granularity fault localization and the mutation operators use. *)
let subtree_ids (m : Verilog.Ast.module_decl) (items : Slice.Ids.t) :
    Fault_loc.IdSet.t =
  List.fold_left
    (fun acc (item : Verilog.Ast.item) ->
      if not (Slice.Ids.mem item.iid items) then acc
      else
        Verilog.Ast_utils.fold_item
          (fun acc (s : Verilog.Ast.stmt) -> Fault_loc.IdSet.add s.sid acc)
          (fun acc (e : Verilog.Ast.expr) -> Fault_loc.IdSet.add e.eid acc)
          (Fault_loc.IdSet.add item.iid acc)
          item)
    Fault_loc.IdSet.empty m.items

let prepare (whole_ev : Evaluate.t) ~(seed : Evaluate.outcome) : t option =
  let problem = whole_ev.problem in
  match dut_instance problem.spec with
  | None -> None
  | Some inst -> (
      match find_module problem.design problem.spec.top with
      | None -> None
      | Some tb when Slice.find_instance tb ~inst ~target:problem.target = None ->
          None
      | Some tb -> (
          let whole_target = Problem.target_module problem in
          match Slice.output_ports whole_target with
          | [] -> None
          | out_ports ->
              (* The seed's mismatching outputs seed the cone. *)
              let mismatch =
                Fitness.mismatched_signals ~expected:problem.oracle
                  ~actual:seed.trace
              in
              let tb_read =
                Slice.tb_read_outputs ~tb ~inst ~target:whole_target
              in
              let seed_outs =
                match List.filter (fun o -> List.mem o out_ports) mismatch with
                | [] -> out_ports (* mismatch invisible: keep every output *)
                | mism ->
                    List.sort_uniq compare
                      (mism @ Slice.Names.elements tb_read)
              in
              let plan =
                Slice.slice ~design:problem.design whole_target
                  ~outputs:seed_outs
              in
              if plan.sl_dropped = [] then None
              else
                let tb' =
                  Slice.rewrite_testbench ~tb ~inst ~target:whole_target plan
                in
                let design' =
                  List.map
                    (fun (m : Verilog.Ast.module_decl) ->
                      if m.mod_id = problem.target then plan.sl_module
                      else if m.mod_id = problem.spec.top then tb'
                      else m)
                    problem.design
                in
                let sliced =
                  {
                    problem with
                    design = design';
                    oracle =
                      Oracle.restrict ~names:plan.sl_outputs problem.oracle;
                  }
                in
                (* Backward/forward intersection: nodes inside kept items
                   that are also downstream of the seed localization set.
                   Engines use it to narrow mutation targets; extraction
                   itself stays backward-only, hence exact. *)
                let focus =
                  if mismatch = [] then Fault_loc.IdSet.empty
                  else
                    let fl =
                      Fault_loc.localize whole_target ~mismatch
                    in
                    if Fault_loc.IdSet.is_empty fl.fl then Fault_loc.IdSet.empty
                    else
                      let g = Verilog.Deps.build ~design:problem.design whole_target in
                      let fwd =
                        Slice.forward g
                          (Slice.Ids.of_list (Fault_loc.IdSet.elements fl.fl))
                      in
                      let kept = Slice.Ids.of_list plan.sl_kept in
                      subtree_ids whole_target (Slice.Ids.inter fwd kept)
                in
                Some { plan; whole_target; sliced; focus; mismatch }))

let stitch (s : t) (patch : Patch.t) : Verilog.Ast.module_decl =
  Patch.apply s.whole_target patch

type run = {
  whole_ev : Evaluate.t;
  ev : Evaluate.t;
  seed : Evaluate.outcome;
  slice : t option;
  mutable stitched : int;
}

(* Score the unpatched seed on the whole design, then try to slice. The
   seed evaluation both seeds the cone and primes [whole_ev]'s cache for
   the stitched verifies; on fallback it is the run's own seed lookup, so
   a whole-design run issues exactly the lookups it always did. *)
let start (cfg : Config.t) (problem : Problem.t) : run =
  let whole_ev = Evaluate.create cfg problem in
  let seed = Evaluate.eval_module whole_ev (Problem.target_module problem) in
  match prepare whole_ev ~seed with
  | None -> { whole_ev; ev = whole_ev; seed; slice = None; stitched = 0 }
  | Some s ->
      let ev = Evaluate.create cfg s.sliced in
      let seed = Evaluate.eval_module ev (Problem.target_module s.sliced) in
      { whole_ev; ev; seed; slice = Some s; stitched = 0 }

let whole_target (r : run) = Problem.target_module r.whole_ev.problem

(* The acceptance gate: a slice-plausible patch counts as a repair only if
   the stitched whole design reaches fitness 1.0 on the full oracle. *)
let accept (r : run) (patch : Patch.t) : bool =
  match r.slice with
  | None -> true
  | Some s ->
      r.stitched <- r.stitched + 1;
      (Evaluate.eval_module r.whole_ev (stitch s patch)).fitness >= 1.0

let journal_record (s : t) : (string * Obs.Json.t) list =
  let p = s.plan in
  let strs l = Obs.Json.List (List.map (fun x -> Obs.Json.Str x) l) in
  let ints l = Obs.Json.List (List.map (fun x -> Obs.Json.Int x) l) in
  [
    ("type", Obs.Json.Str "slice");
    ("module", Obs.Json.Str s.whole_target.mod_id);
    ("mismatch", strs s.mismatch);
    ("outputs", strs p.sl_outputs);
    ("inputs", strs p.sl_inputs);
    ("kept", ints p.sl_kept);
    ("dropped", ints p.sl_dropped);
    ("nodes_total", Obs.Json.Int p.sl_nodes_total);
    ("procs_kept", Obs.Json.Int p.sl_procs_kept);
    ("procs_total", Obs.Json.Int p.sl_procs_total);
    ("size", Obs.Json.Int (Verilog.Ast_utils.module_size p.sl_module));
    ( "whole_size",
      Obs.Json.Int (Verilog.Ast_utils.module_size s.whole_target) );
    ("focus_nodes", Obs.Json.Int (Fault_loc.IdSet.cardinal s.focus));
    ("structural_hash", Obs.Json.Str p.sl_hash);
  ]

let journal (r : run) : unit =
  if Obs.Journal.enabled () then
    Option.iter (fun s -> Obs.Journal.emit (journal_record s)) r.slice

let run_end_fields (r : run) : (string * Obs.Json.t) list =
  match r.slice with
  | None -> []
  | Some _ ->
      [
        ("slice_sims", Obs.Json.Int (Evaluate.get r.ev.table Probes));
        ("stitched_verifies", Obs.Json.Int r.stitched);
      ]
