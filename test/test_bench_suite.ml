(* Benchmark-suite integrity tests: every project parses, elaborates, and
   simulates to completion under both testbenches; the golden design scores
   fitness 1.0; all 32 transplants apply, change behaviour, and remain
   visible on the held-out validation bench; and the Table 2/3 metadata is
   structurally sound. *)

let projects = Bench_suite.Projects.all
let defects = Bench_suite.Defects.all

let test_inventory () =
  Alcotest.(check int) "11 projects (Table 2)" 11 (List.length projects);
  Alcotest.(check int) "32 defects (Table 3)" 32 (List.length defects);
  let cat1 = List.filter (fun (d : Bench_suite.Defects.t) -> d.category = 1) defects in
  Alcotest.(check int) "19 category-1 defects" 19 (List.length cat1);
  Alcotest.(check int) "13 category-2 defects" 13
    (List.length defects - List.length cat1);
  (* Paper totals: 21 plausible, 16 correct. *)
  let paper_plausible =
    List.filter (fun (d : Bench_suite.Defects.t) -> d.paper.repair_time <> None) defects
  in
  let paper_correct =
    List.filter (fun (d : Bench_suite.Defects.t) -> d.paper.correct) defects
  in
  Alcotest.(check int) "paper: 21 plausible" 21 (List.length paper_plausible);
  Alcotest.(check int) "paper: 16 correct" 16 (List.length paper_correct)

let test_projects_have_sources () =
  List.iter
    (fun (p : Bench_suite.Projects.t) ->
      Alcotest.(check bool) (p.name ^ " design loc") true
        (Bench_suite.Projects.design_loc p > 10);
      Alcotest.(check bool) (p.name ^ " tb loc") true
        (Bench_suite.Projects.tb_loc p > 10);
      Alcotest.(check bool) (p.name ^ " validation tb") true
        (String.length (Bench_suite.Projects.tb2_source p) > 100))
    projects

let simulate_project (p : Bench_suite.Projects.t) tb =
  let src = Bench_suite.Projects.design_source p ^ "\n" ^ tb in
  Sim.Simulate.run_source ~source:src (Bench_suite.Projects.spec p)

let test_golden_designs_simulate () =
  List.iter
    (fun (p : Bench_suite.Projects.t) ->
      List.iter
        (fun tb ->
          match simulate_project p tb with
          | Error (Sim.Simulate.Elab_failure m) ->
              Alcotest.failf "%s failed: %s" p.name m
          | Ok r ->
              Alcotest.(check bool) (p.name ^ " reaches $finish") true
                (r.outcome = Sim.Engine.Finished);
              Alcotest.(check bool) (p.name ^ " records samples") true
                (List.length r.trace > 3))
        [ Bench_suite.Projects.tb_source p; Bench_suite.Projects.tb2_source p ])
    projects

let test_golden_scores_one () =
  List.iter
    (fun (d : Bench_suite.Defects.t) ->
      let prob = Bench_suite.Defects.problem d in
      let golden_m =
        let p = Bench_suite.Projects.find d.project in
        match
          Verilog.Parser.parse_design_result (Bench_suite.Projects.design_source p)
        with
        | Ok mods ->
            List.find (fun (m : Verilog.Ast.module_decl) -> m.mod_id = d.target) mods
        | Error e -> Alcotest.fail e
      in
      let ev = Cirfix.Evaluate.create Cirfix.Config.default prob in
      let o = Cirfix.Evaluate.eval_module ev golden_m in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "defect %d golden fitness" d.id)
        1.0 o.fitness)
    defects

let test_defects_inject_and_are_visible () =
  List.iter
    (fun (d : Bench_suite.Defects.t) ->
      let prob = Bench_suite.Defects.problem d in
      let ev = Cirfix.Evaluate.create Cirfix.Config.default prob in
      let o = Cirfix.Evaluate.eval_module ev (Cirfix.Problem.target_module prob) in
      Alcotest.(check bool)
        (Printf.sprintf "defect %d visible (fitness %.4f)" d.id o.fitness)
        true (o.fitness < 1.0))
    defects

let test_defects_visible_on_validation_bench () =
  List.iter
    (fun (d : Bench_suite.Defects.t) ->
      let prob = Bench_suite.Defects.validation_problem d in
      let ev = Cirfix.Evaluate.create Cirfix.Config.default prob in
      let o = Cirfix.Evaluate.eval_module ev (Cirfix.Problem.target_module prob) in
      Alcotest.(check bool)
        (Printf.sprintf "defect %d visible on tb2" d.id)
        true (o.fitness < 1.0))
    defects

let test_inject_is_deterministic () =
  List.iter
    (fun (d : Bench_suite.Defects.t) ->
      Alcotest.(check string)
        (Printf.sprintf "defect %d deterministic" d.id)
        (Bench_suite.Defects.inject d)
        (Bench_suite.Defects.inject d))
    defects

let test_inject_missing_pattern_raises () =
  let d = Bench_suite.Defects.find 3 in
  let broken = { d with rewrites = [ ("no such text", "x") ] } in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Bench_suite.Defects.inject broken);
       false
     with Bench_suite.Defects.Inject_error _ -> true)

let test_defect_targets_exist () =
  List.iter
    (fun (d : Bench_suite.Defects.t) ->
      let prob = Bench_suite.Defects.problem d in
      ignore (Cirfix.Problem.target_module prob))
    defects

let test_is_correct_accepts_golden () =
  (* The golden module must always pass the correctness classification. *)
  List.iter
    (fun id ->
      let d = Bench_suite.Defects.find id in
      let p = Bench_suite.Projects.find d.project in
      let golden_m =
        match
          Verilog.Parser.parse_design_result (Bench_suite.Projects.design_source p)
        with
        | Ok mods ->
            List.find (fun (m : Verilog.Ast.module_decl) -> m.mod_id = d.target) mods
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool)
        (Printf.sprintf "golden correct for defect %d" id)
        true
        (Bench_suite.Defects.is_correct d golden_m))
    [ 3; 6; 12; 29 ]

let test_is_correct_rejects_faulty () =
  List.iter
    (fun id ->
      let d = Bench_suite.Defects.find id in
      let prob = Bench_suite.Defects.problem d in
      Alcotest.(check bool)
        (Printf.sprintf "faulty incorrect for defect %d" id)
        false
        (Bench_suite.Defects.is_correct d (Cirfix.Problem.target_module prob)))
    [ 3; 6; 12 ]

let test_runner_repairs_sensitivity_defect () =
  (* End-to-end through the trial runner on the fastest scenario. *)
  let d = Bench_suite.Defects.find 14 in
  let cfg = Bench_suite.Runner.scenario_config d in
  let s = Bench_suite.Runner.run_defect ~cfg ~trials:3 d in
  Alcotest.(check bool) "repaired" true s.repaired;
  Alcotest.(check bool) "correct" true s.correct;
  Alcotest.(check bool) "has patch" true (s.patch <> None);
  Alcotest.(check bool) "positive probes" true
    (Cirfix.Evaluate.get s.counters Probes > 0)

(* [summarize] replays the sequential driver: counters are summed over the
   trials up to and including the first repair, and nothing after it. The
   results are real (tiny) runs, relabelled as repaired or not. *)
let test_summarize_stops_at_first_repair () =
  let d = Bench_suite.Defects.find 3 in
  let problem = Bench_suite.Defects.problem d in
  let trial seed =
    let cfg = Bench_suite.Runner.scenario_config d in
    Cirfix.Gp.repair
      { cfg with seed; pop_size = 10; max_generations = 2; max_probes = 40 }
      problem
  in
  let unrepaired seed =
    { (trial seed) with minimized = None; repaired_module = None }
  in
  let r1 = unrepaired 1 and r3 = unrepaired 3 in
  let r2 =
    {
      (trial 2) with
      minimized = Some [];
      repaired_module = Some (Cirfix.Problem.target_module problem);
    }
  in
  let counts c =
    List.map (Cirfix.Evaluate.get c) Cirfix.Evaluate.all_counters
  in
  let sum rs =
    counts
      (List.fold_left
         (fun acc (r : Cirfix.Gp.result) -> Cirfix.Evaluate.add acc r.counters)
         Cirfix.Evaluate.zero rs)
  in
  Alcotest.(check bool) "trials did work" true (Cirfix.Evaluate.get r3.counters Probes > 0);
  let s = Bench_suite.Runner.summarize d [ r1; r2; r3 ] in
  Alcotest.(check (list int)) "sums trials 1-2" (sum [ r1; r2 ])
    (counts s.counters);
  Alcotest.(check (option int)) "winning seed" (Some 2) s.winning_seed;
  Alcotest.(check (float 1e-9)) "total seconds"
    (r1.wall_seconds +. r2.wall_seconds) s.total_seconds;
  let none = Bench_suite.Runner.summarize d [ r1; r3 ] in
  Alcotest.(check bool) "unrepaired" false none.repaired;
  Alcotest.(check (list int)) "sums every trial" (sum [ r1; r3 ])
    (counts none.counters)

let test_table2_loc_report () =
  (* The Table 2 inventory is well-formed: names unique, locs positive. *)
  let names = List.map (fun (p : Bench_suite.Projects.t) -> p.name) projects in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  let total =
    List.fold_left (fun acc p -> acc + Bench_suite.Projects.design_loc p) 0 projects
  in
  Alcotest.(check bool) "total project loc substantial" true (total > 600)

let () =
  Alcotest.run "bench_suite"
    [
      ( "inventory",
        [
          Alcotest.test_case "tables 2 and 3" `Quick test_inventory;
          Alcotest.test_case "sources" `Quick test_projects_have_sources;
          Alcotest.test_case "table 2 loc" `Quick test_table2_loc_report;
        ] );
      ( "golden",
        [
          Alcotest.test_case "simulate to finish" `Slow test_golden_designs_simulate;
          Alcotest.test_case "fitness 1.0" `Slow test_golden_scores_one;
        ] );
      ( "defects",
        [
          Alcotest.test_case "inject and visible" `Slow
            test_defects_inject_and_are_visible;
          Alcotest.test_case "visible on validation tb" `Slow
            test_defects_visible_on_validation_bench;
          Alcotest.test_case "deterministic" `Quick test_inject_is_deterministic;
          Alcotest.test_case "missing pattern" `Quick
            test_inject_missing_pattern_raises;
          Alcotest.test_case "targets exist" `Quick test_defect_targets_exist;
        ] );
      ( "correctness-classifier",
        [
          Alcotest.test_case "accepts golden" `Slow test_is_correct_accepts_golden;
          Alcotest.test_case "rejects faulty" `Quick test_is_correct_rejects_faulty;
        ] );
      ( "runner",
        [
          Alcotest.test_case "repairs defect 14" `Slow
            test_runner_repairs_sensitivity_defect;
          Alcotest.test_case "summarize stops at first repair" `Quick
            test_summarize_stops_at_first_repair;
        ] );
    ]
