(* Seeded mutants of the defect scenarios, shared by the two sweeps
   over them (deps_golden_run, sim_equiv_run).

   A walk is a random sequence of single mutations from a scenario's
   faulty target: mutant r applies one [Mutate.mutate] edit to mutant
   r-1, restarting from the faulty module every four steps. Draws that
   yield no applicable edit leave the module unchanged. The walks are
   read in rounds: round r holds mutant r of every scenario, so a prefix
   of the rounds is a prefix of a sweep's output. *)

let rounds = 12
let smoke_rounds = 2

let describe e =
  let s = Cirfix.Patch.edit_to_string e in
  if String.length s <= 100 then s else String.sub s 0 100 ^ "..."

(* The first [n] mutants of scenario [d]'s walk from [target], each with
   a description of the edit that produced it. *)
let walk (d : Bench_suite.Defects.t) (target : Verilog.Ast.module_decl) ~n =
  let rng = Random.State.make [| 0xdeb5; d.id |] in
  let cfg = Cirfix.Config.default in
  let step (m : Verilog.Ast.module_decl) =
    let fl_stmts = Verilog.Ast_utils.stmts_of_module m in
    match Cirfix.Mutate.mutate rng cfg m ~fl_stmts with
    | None -> (m, "none")
    | Some e -> (
        match Cirfix.Patch.apply_edit m e with
        | Some m' -> (m', describe e)
        | None -> (m, "inapplicable " ^ describe e))
  in
  let rec go r prev acc =
    if r = n then List.rev acc
    else
      let base = if r mod 4 = 0 then target else prev in
      let m, e = step base in
      go (r + 1) m ((m, e) :: acc)
  in
  go 0 target []
