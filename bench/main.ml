(* Evaluation harness: regenerates every table and figure from the paper's
   evaluation section (see DESIGN.md's experiment index), plus Bechamel
   micro-benchmarks of the substrate components.

     dune exec bench/main.exe                 -- everything (quick scale)
     dune exec bench/main.exe -- table3       -- one artifact
     dune exec bench/main.exe -- table3 --full -- paper-style 5-trial run

   Absolute numbers differ from the paper (our substrate is an in-process
   simulator, not Synopsys VCS on their testbed); the comparisons of record
   are the qualitative ones: who repairs what, category balance, fitness
   trajectories, oracle sensitivity. *)

let quick = ref true
let line = String.make 78 '-'

let section title =
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* ------------------------------------------------------------------ *)
(* Table 1: repair templates                                           *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: repair templates (applied to the counter design)";
  let m =
    match Verilog.Parser.parse_design_result (Corpus.read "counter.v") with
    | Ok [ m ] -> m
    | _ -> failwith "parse counter"
  in
  Printf.printf "%-28s %-18s %s\n" "Template" "Defect category" "eligible targets / applies";
  List.iter
    (fun tpl ->
      let targets = Cirfix.Templates.eligible_targets tpl m in
      let applied =
        List.exists
          (fun target ->
            Cirfix.Templates.apply tpl ~signal:"clk" m ~target <> None
            || Cirfix.Templates.apply tpl m ~target <> None)
          targets
      in
      Printf.printf "%-28s %-18s %d targets%s\n"
        (Cirfix.Templates.to_string tpl)
        (Cirfix.Templates.defect_category tpl)
        (List.length targets)
        (if targets = [] then " (none in this design)"
         else if applied then ", applies"
         else ", does not apply"))
    Cirfix.Templates.all

(* ------------------------------------------------------------------ *)
(* Table 2: benchmark projects                                         *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: benchmark hardware projects";
  Printf.printf "%-22s %-42s %8s %10s\n" "Project" "Description" "LOC" "TB LOC";
  let tp, tt =
    List.fold_left
      (fun (tp, tt) (p : Bench_suite.Projects.t) ->
        let dl = Bench_suite.Projects.design_loc p in
        let tl = Bench_suite.Projects.tb_loc p in
        Printf.printf "%-22s %-42s %8d %10d\n" p.name p.description dl tl;
        (tp + dl, tt + tl))
      (0, 0) Bench_suite.Projects.all
  in
  Printf.printf "%-22s %-42s %8d %10d\n" "Total" "" tp tt;
  Printf.printf
    "\n(The five large cores are functional re-implementations at reduced\n\
    \ line counts; see DESIGN.md for the substitution rationale.)\n"

(* ------------------------------------------------------------------ *)
(* Table 3 / RQ1: repair results                                       *)
(* ------------------------------------------------------------------ *)

let table3_cache : Bench_suite.Runner.trial_summary list option ref = ref None

let summary_probes (s : Bench_suite.Runner.trial_summary) =
  Cirfix.Evaluate.get s.counters Probes

let run_table3 () =
  match !table3_cache with
  | Some r -> r
  | None ->
      let trials = 5 in
      let scale = if !quick then 1.0 else 2.0 in
      let results =
        List.map
          (fun (d : Bench_suite.Defects.t) ->
            let cfg = Bench_suite.Runner.scenario_config ~budget_scale:scale d in
            Bench_suite.Runner.run_defect ~cfg ~trials d)
          Bench_suite.Defects.all
      in
      table3_cache := Some results;
      results

let table3 () =
  section "Table 3: repair results for CirFix (this reproduction vs. paper)";
  Printf.printf "%-4s %-22s %-52s %s %10s %8s %6s   %s\n" "Id" "Project"
    "Defect" "Cat" "Time(s)" "Probes" "Edits" "Result (paper)";
  let results = run_table3 () in
  List.iter
    (fun (s : Bench_suite.Runner.trial_summary) ->
      let d = s.defect in
      let ours =
        if s.correct then "CORRECT"
        else if s.repaired then "plausible"
        else "-"
      in
      let paper =
        match d.paper.repair_time with
        | Some t when d.paper.correct -> Printf.sprintf "CORRECT %.1fs" t
        | Some t -> Printf.sprintf "plausible %.1fs" t
        | None -> "-"
      in
      Printf.printf "%-4d %-22s %-52s %3d %10.2f %8d %6d   %-10s (%s)\n" d.id
        d.project
        (if String.length d.description > 52 then
           String.sub d.description 0 49 ^ "..."
         else d.description)
        d.category s.total_seconds (summary_probes s)
        (match s.patch with Some p -> List.length p | None -> 0)
        ours paper)
    results;
  let plausible = List.filter (fun (s : Bench_suite.Runner.trial_summary) -> s.repaired) results in
  let correct = List.filter (fun (s : Bench_suite.Runner.trial_summary) -> s.correct) results in
  Printf.printf
    "\nTotals: plausible %d/32, correct %d/32   (paper: 21/32 plausible, 16/32 correct)\n"
    (List.length plausible) (List.length correct)

let rq1 () =
  section "RQ1: repair rate and the brute-force baseline";
  let results = run_table3 () in
  let plausible = List.length (List.filter (fun (s : Bench_suite.Runner.trial_summary) -> s.repaired) results) in
  let correct = List.length (List.filter (fun (s : Bench_suite.Runner.trial_summary) -> s.correct) results) in
  Printf.printf "CirFix: plausible %d/32 (%.1f%%), correct %d/32 (%.1f%%)\n"
    plausible (100. *. float_of_int plausible /. 32.)
    correct (100. *. float_of_int correct /. 32.);
  Printf.printf "Paper:  plausible 21/32 (65.6%%), correct 16/32 (50.0%%)\n\n";
  (* Brute force under the same probe budget on a representative subset:
     the paper reports it does not scale beyond trivial single edits. *)
  let subset = [ 3; 4; 9; 21 ] in
  Printf.printf "Brute-force baseline (uniform edits, same probe budget):\n";
  List.iter
    (fun id ->
      let d = Bench_suite.Defects.find id in
      let cfg = Bench_suite.Runner.scenario_config d in
      let cirfix_s = List.find (fun (s : Bench_suite.Runner.trial_summary) -> s.defect.id = id) results in
      let bf = Cirfix.Brute_force.search ~max_depth:2 cfg (Bench_suite.Defects.problem d) in
      Printf.printf
        "  #%-2d %-22s brute-force: %-9s (%d probes, %.1fs)  cirfix: %-9s (%d probes, %.1fs)\n"
        id d.project
        (if bf.repaired <> None then "repaired" else "none")
        (Cirfix.Evaluate.get bf.counters Probes) bf.wall_seconds
        (if cirfix_s.repaired then "repaired" else "none")
        (summary_probes cirfix_s) cirfix_s.total_seconds)
    subset

(* ------------------------------------------------------------------ *)
(* RQ2: defect categories                                              *)
(* ------------------------------------------------------------------ *)

let rq2 () =
  section "RQ2: performance per defect category";
  let results = run_table3 () in
  let by_cat c = List.filter (fun (s : Bench_suite.Runner.trial_summary) -> s.defect.category = c) results in
  let stats_for c =
    let rs = by_cat c in
    let repaired = List.filter (fun (s : Bench_suite.Runner.trial_summary) -> s.repaired) rs in
    let times = List.map (fun (s : Bench_suite.Runner.trial_summary) -> s.seconds) repaired in
    let probes =
      List.map (fun s -> float_of_int (summary_probes s)) repaired
    in
    (List.length rs, List.length repaired, times, probes)
  in
  let n1, r1, t1, p1 = stats_for 1 in
  let n2, r2, t2, p2 = stats_for 2 in
  Printf.printf "Category 1 (easy): %d/%d plausible (%.1f%%), mean probes %.0f, mean time %.2fs\n"
    r1 n1 (100. *. float_of_int r1 /. float_of_int n1)
    (Cirfix.Stats.mean p1) (Cirfix.Stats.mean t1);
  Printf.printf "Category 2 (hard): %d/%d plausible (%.1f%%), mean probes %.0f, mean time %.2fs\n"
    r2 n2 (100. *. float_of_int r2 /. float_of_int n2)
    (Cirfix.Stats.mean p2) (Cirfix.Stats.mean t2);
  Printf.printf "Paper: 12/19 (63.2%%) category 1, 9/13 (69.2%%) category 2\n";
  if t1 <> [] && t2 <> [] then (
    let mwu = Cirfix.Stats.mann_whitney_u t1 t2 in
    Printf.printf
      "Mann-Whitney U on repair times: U=%.1f, p=%.3f (paper: p=0.373, not significant)\n"
      mwu.u mwu.p_two_tailed)

(* ------------------------------------------------------------------ *)
(* Figure 2: simulation vs expected behaviour                          *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  section "Figure 2: simulation result vs expected behaviour (faulty counter)";
  let d = Bench_suite.Defects.find 4 in
  let prob = Bench_suite.Defects.problem d in
  let ev = Cirfix.Evaluate.create Cirfix.Config.default prob in
  let o = Cirfix.Evaluate.eval_module ev (Cirfix.Problem.target_module prob) in
  let show name (tr : Sim.Recorder.trace) =
    Printf.printf "%s\n" name;
    List.iteri
      (fun i (s : Sim.Recorder.sample) ->
        if i < 6 || i > List.length tr - 3 then
          Printf.printf "  %4d,%s\n" s.t
            (String.concat ","
               (List.map
                  (fun (_, v) -> Logic4.Vec.to_string (Logic4.Packed.to_vec v))
                  s.values))
        else if i = 6 then Printf.printf "  ...\n")
      tr
  in
  (match o.trace with
  | [] -> print_endline "(no trace)"
  | s :: _ ->
      Printf.printf "columns: time,%s\n\n" (String.concat "," (List.map fst s.values)));
  show "Simulation Result (faulty)" o.trace;
  show "Expected Behavior (oracle)" (Cirfix.Oracle.to_trace prob.oracle);
  Printf.printf "\nmismatched signals: %s\n"
    (String.concat ", "
       (Cirfix.Fitness.mismatched_signals ~expected:prob.oracle ~actual:o.trace));
  Printf.printf "fitness of the faulty design: %.3f (paper: 0.58)\n" o.fitness

(* ------------------------------------------------------------------ *)
(* Figure 3: multi-edit sdram_controller repair                        *)
(* ------------------------------------------------------------------ *)

let figure3 () =
  section "Figure 3: multi-edit repair of the sdram_controller reset defect";
  let d = Bench_suite.Defects.find 32 in
  Printf.printf "Defect (transplanted into the synchronous reset block):\n";
  List.iter
    (fun (old_s, new_s) ->
      Printf.printf "  - %s\n  + %s\n"
        (String.concat " / " (String.split_on_char '\n' (String.trim old_s)))
        (String.concat " / " (String.split_on_char '\n' (String.trim new_s))))
    d.rewrites;
  let cfg = Bench_suite.Runner.scenario_config ~budget_scale:2.0 d in
  let s = Bench_suite.Runner.run_defect ~cfg ~trials:5 d in
  (match (s.patch, s.repaired_module) with
  | Some p, Some m ->
      Printf.printf "\nCirFix repair (%d edits, %.1fs, %d probes, %s):\n  %s\n"
        (List.length p) s.seconds (summary_probes s)
        (if s.correct then "correct" else "plausible")
        (Cirfix.Patch.to_string p);
      Printf.printf "\nRepaired reset block excerpt:\n";
      let src = Verilog.Pp.module_to_string m in
      String.split_on_char '\n' src
      |> List.filteri (fun i _ -> i < 30)
      |> List.iter (fun l -> Printf.printf "  %s\n" l)
  | _ ->
      Printf.printf "\nNo repair found under the current budget; paper took 4.6h\n\
                    \ at popSize 5000 for this scenario. Re-run with --full.\n");
  Printf.printf "\ninitial fitness of faulty design: %.3f (paper: 0.818)\n"
    s.initial_fitness

(* ------------------------------------------------------------------ *)
(* RQ3: fitness trajectory on a multi-edit repair                      *)
(* ------------------------------------------------------------------ *)

let rq3 () =
  section "RQ3: fitness function guidance (multi-edit counter repair)";
  (* Reconstruct the staircase of the paper's triple-edit counter example:
     apply the known human repair edit by edit and report fitness. *)
  let d = Bench_suite.Defects.find 4 in
  let prob = Bench_suite.Defects.problem d in
  let original = Cirfix.Problem.target_module prob in
  let ev = Cirfix.Evaluate.create Cirfix.Config.default prob in
  (* Edits: insert the overflow assignment into the reset branch, then
     decrement its constant (1'b1 -> 1'b0). *)
  let stmts = Verilog.Ast_utils.stmts_of_module original in
  let ov =
    List.find
      (fun (s : Verilog.Ast.stmt) ->
        match s.Verilog.Ast.s with
        | Verilog.Ast.Nonblocking (Verilog.Ast.LId "overflow_out", _, _) -> true
        | _ -> false)
      stmts
  in
  let cnt_reset =
    List.find
      (fun (s : Verilog.Ast.stmt) ->
        match s.Verilog.Ast.s with
        | Verilog.Ast.Nonblocking
            (Verilog.Ast.LId "counter_out", _, { e = Verilog.Ast.Number v; _ }) ->
            Logic4.Vec.to_int v = Some 0
        | _ -> false)
      stmts
  in
  let num_id =
    match ov.Verilog.Ast.s with
    | Verilog.Ast.Nonblocking (_, _, rhs) -> rhs.Verilog.Ast.eid
    | _ -> assert false
  in
  let steps =
    [
      ("original (faulty)", []);
      ( "+ insert overflow assignment in reset branch",
        [ Cirfix.Patch.Insert (cnt_reset.Verilog.Ast.sid, ov) ] );
      ( "+ decrement its constant (1'b1 -> 1'b0)",
        [
          Cirfix.Patch.Insert (cnt_reset.Verilog.Ast.sid, ov);
          Cirfix.Patch.Template (Cirfix.Templates.Decrement_value, num_id, None);
        ] );
    ]
  in
  Printf.printf "%-48s %s\n" "candidate" "fitness";
  List.iter
    (fun (label, patch) ->
      let o = Cirfix.Evaluate.eval_patch ev original patch in
      Printf.printf "%-48s %.3f\n" label o.fitness)
    steps;
  Printf.printf
    "\n(The paper's triple-edit counter repair climbs 0 -> 0.58 -> 0.77 -> 1.0;\n\
    \ each productive edit must raise fitness monotonically, as it does here.)\n";
  (* Also show the best-fitness-per-generation curve of an actual run. *)
  let cfg =
    { (Bench_suite.Runner.scenario_config d) with seed = 2; max_probes = 4000 }
  in
  let r = Cirfix.Gp.repair cfg prob in
  Printf.printf "\nbest fitness per generation (seed 2): %s%s\n"
    (String.concat " "
       (List.map
          (fun (g : Cirfix.Gp.generation_stats) ->
            Printf.sprintf "%.2f" g.best_fitness)
          r.generations))
    (if r.repaired <> None then " -> 1.00 (repair found)" else "")

(* ------------------------------------------------------------------ *)
(* RQ4: sensitivity to the quality of correctness information          *)
(* ------------------------------------------------------------------ *)

let rq4 () =
  section "RQ4: sensitivity to the expected-behaviour information";
  (* Thin the oracle to 100% / 50% / 25% of its sampled timestamps and
     re-run repair on the scenarios the paper's analysis considers (the
     ones repaired with full information). *)
  let candidates = [ 3; 4; 5; 6; 7; 11; 12; 13; 14; 18 ] in
  Printf.printf "oracle quality: plausible repairs / correct repairs over %d scenarios\n"
    (List.length candidates);
  List.iter
    (fun keep ->
      let plausible = ref 0 and correct = ref 0 in
      List.iter
        (fun id ->
          let d = Bench_suite.Defects.find id in
          let prob = Bench_suite.Defects.problem d in
          let thinned = { prob with oracle = Cirfix.Oracle.thin ~keep prob.oracle } in
          let cfg = Bench_suite.Runner.scenario_config d in
          let rec attempt seed =
            let r = Cirfix.Gp.repair { cfg with seed } thinned in
            match r.repaired_module with
            | Some m -> Some m
            | None -> if seed >= 3 then None else attempt (seed + 1)
          in
          match attempt 1 with
          | Some m ->
              incr plausible;
              if Bench_suite.Defects.is_correct d m then incr correct
          | None -> ())
        candidates;
      Printf.printf "  %3d%% of samples: %2d plausible, %2d correct\n"
        (100 / keep) !plausible !correct)
    [ 1; 2; 4 ];
  Printf.printf
    "(paper, over all 32: 21/20/20 plausible and 16/12/10 correct at 100/50/25%%)\n"

(* ------------------------------------------------------------------ *)
(* Ablation A1: fix localization                                       *)
(* ------------------------------------------------------------------ *)

let ablation_fixloc () =
  section "Ablation: fix localization (share of degenerate mutants)";
  (* The paper measures the share of mutants that fail to COMPILE (their
     text-level patches can be syntactically invalid). Our edits operate on
     the AST, so mutants are syntactically valid by construction; the
     analogous failure mode is a semantically degenerate mutant - one that
     fails elaboration, diverges, or scores fitness 0. We sample N single
     edits per mode and evaluate each directly. *)
  let scenarios = [ 4; 9; 32 ] in
  let samples = 400 in
  Printf.printf "%-24s %22s %22s\n" "scenario" "with fix loc"
    "without fix loc";
  Printf.printf "%-24s %22s %22s\n" "" "(zero-fit / elab-fail)"
    "(zero-fit / elab-fail)";
  List.iter
    (fun id ->
      let d = Bench_suite.Defects.find id in
      let prob = Bench_suite.Defects.problem d in
      let original = Cirfix.Problem.target_module prob in
      let stmts = Verilog.Ast_utils.stmts_of_module original in
      let rate use_fix_loc =
        let cfg =
          { (Bench_suite.Runner.scenario_config d) with use_fix_loc }
        in
        let ev = Cirfix.Evaluate.create cfg prob in
        let rng = Random.State.make [| 11 * id |] in
        let zero = ref 0 and elab = ref 0 and total = ref 0 in
        for _ = 1 to samples do
          match Cirfix.Mutate.mutate rng cfg original ~fl_stmts:stmts with
          | None -> ()
          | Some e ->
              incr total;
              let o = Cirfix.Evaluate.eval_patch ev original [ e ] in
              if o.fitness = 0.0 then incr zero;
              (match o.status with
              | Cirfix.Evaluate.Compile_error _ -> incr elab
              | _ -> ())
        done;
        if !total = 0 then (0., 0.)
        else
          ( 100. *. float_of_int !zero /. float_of_int !total,
            100. *. float_of_int !elab /. float_of_int !total )
      in
      let z1, e1 = rate true and z0, e0 = rate false in
      Printf.printf "%-24s %12.1f%% / %5.1f%% %12.1f%% / %5.1f%%\n"
        (Printf.sprintf "#%d %s" id d.project)
        z1 e1 z0 e0)
    scenarios;
  Printf.printf
    "(paper: fix localization reduces non-compiling mutants from 35%% to 10%%;\n\
    \ here AST edits always parse, so the drop shows up in degenerate-mutant\n\
    \ rates instead)\n"

(* ------------------------------------------------------------------ *)
(* Ablation A2: the phi penalty weight                                 *)
(* ------------------------------------------------------------------ *)

let ablation_phi () =
  section "Ablation: x/z penalty weight phi (paper Sec. 4.2)";
  let scenarios = [ 4; 13; 14 ] in
  Printf.printf "%-24s %10s %10s %10s\n" "scenario" "phi=1" "phi=2" "phi=3";
  List.iter
    (fun id ->
      let d = Bench_suite.Defects.find id in
      let result phi =
        let cfg = { (Bench_suite.Runner.scenario_config d) with phi } in
        let s = Bench_suite.Runner.run_defect ~cfg ~trials:3 d in
        if s.repaired then Printf.sprintf "%d probes" (summary_probes s)
        else "none"
      in
      Printf.printf "%-24s %10s %10s %10s\n"
        (Printf.sprintf "#%d %s" id d.project)
        (result 1.0) (result 2.0) (result 3.0))
    scenarios;
  Printf.printf
    "(paper: phi=1 under-penalizes x/z comparisons, phi=3 over-penalizes;\n\
    \ phi=2 is the default)\n"

(* ------------------------------------------------------------------ *)
(* Ablation A3: GP parameter sensitivity (the paper's future work)      *)
(* ------------------------------------------------------------------ *)

let ablation_params () =
  section "Ablation: GP parameter sensitivity (paper Sec. 6 future work)";
  let d = Bench_suite.Defects.find 4 in
  let base = Bench_suite.Runner.scenario_config d in
  let run cfg =
    let s = Bench_suite.Runner.run_defect ~cfg ~trials:3 d in
    if s.repaired then Printf.sprintf "%d probes" (summary_probes s) else "none"
  in
  Printf.printf "scenario #4 (counter incorrect reset), 3 trials per cell\n\n";
  Printf.printf "population size:   ";
  List.iter
    (fun pop -> Printf.printf "pop=%-4d %-12s " pop (run { base with pop_size = pop }))
    [ 60; 200; 500 ];
  print_newline ();
  Printf.printf "mutation split:    ";
  List.iter
    (fun mt ->
      Printf.printf "mut=%.1f %-12s " mt (run { base with mut_threshold = mt }))
    [ 0.5; 0.7; 0.9 ];
  print_newline ();
  Printf.printf "template share:    ";
  List.iter
    (fun rt ->
      Printf.printf "rt=%.1f  %-12s " rt (run { base with rt_threshold = rt }))
    [ 0.1; 0.2; 0.4 ];
  print_newline ();
  Printf.printf "tournament size:   ";
  List.iter
    (fun t ->
      Printf.printf "t=%-2d    %-12s " t (run { base with tournament_size = t }))
    [ 2; 5; 10 ];
  print_newline ();
  Printf.printf
    "\n(The paper argues operator and representation choices matter more than\n\
    \ exact GP parameter values; the flat response across cells agrees.)\n"

(* ------------------------------------------------------------------ *)
(* Parallel repair throughput (BENCH_repair.json)                       *)
(* ------------------------------------------------------------------ *)

(* Measure the parallel evaluation layer: run the same seeded GP search
   at jobs=1 and jobs=N on the counter and decoder scenarios, record
   wall time / sims-per-second / speedup, and check the determinism
   contract (identical patch and probe count at every jobs value). The
   budget is probe-bound with a generous wall limit, so both runs do the
   same work and the comparison is fair. *)
let repair_perf () =
  section "Parallel repair throughput (writes BENCH_repair.json)";
  let jobs_hi = max 2 (Cirfix.Config.default_jobs ()) in
  let scenarios = [ 1; 2; 3; 4; 5 ] in
  let run id jobs =
    let d = Bench_suite.Defects.find id in
    let cfg =
      {
        (Bench_suite.Runner.scenario_config d) with
        seed = 1;
        max_probes = (if !quick then 1_500 else 6_000);
        max_wall_seconds = 600.0;
        jobs;
      }
    in
    (d, Cirfix.Gp.repair cfg (Bench_suite.Defects.problem d))
  in
  Printf.printf "%-4s %-16s %10s %10s %12s %12s %8s %s\n" "Id" "Project"
    "wall(j=1)" "wall(j=N)" "sims/s(j=1)" "sims/s(j=N)" "speedup"
    "deterministic";
  let rows =
    List.map
      (fun id ->
        let d, r1 = run id 1 in
        let _, rn = run id jobs_hi in
        let s1 =
          Cirfix.Stats.sims_per_sec ~probes:r1.probes
            ~wall_seconds:r1.wall_seconds
        and sn =
          Cirfix.Stats.sims_per_sec ~probes:rn.probes
            ~wall_seconds:rn.wall_seconds
        in
        let speedup = if s1 > 0. then sn /. s1 else 0. in
        let deterministic =
          r1.probes = rn.probes && r1.minimized = rn.minimized
          && r1.mutants_generated = rn.mutants_generated
        in
        Printf.printf "%-4d %-16s %10.2f %10.2f %12.1f %12.1f %7.2fx %b\n" d.id
          d.project r1.wall_seconds rn.wall_seconds s1 sn speedup deterministic;
        (d, r1, rn, s1, sn, speedup, deterministic))
      scenarios
  in
  let json_row (d : Bench_suite.Defects.t) (r1 : Cirfix.Gp.result)
      (rn : Cirfix.Gp.result) s1 sn speedup deterministic =
    Printf.sprintf
      "    { \"id\": %d, \"project\": \"%s\", \"probes\": %d,\n\
      \      \"wall_seconds_jobs1\": %.3f, \"wall_seconds_jobsN\": %.3f,\n\
      \      \"sims_per_sec_jobs1\": %.1f, \"sims_per_sec_jobsN\": %.1f,\n\
      \      \"speedup\": %.3f, \"deterministic\": %b }"
      d.id d.project r1.probes r1.wall_seconds rn.wall_seconds s1 sn speedup
      deterministic
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"jobs_low\": 1,\n\
      \  \"jobs_high\": %d,\n\
      \  \"cores_available\": %d,\n\
      \  \"note\": \"speedup is bounded by physical cores; on a single-core \
       host the parallel layer adds coordination overhead and speedup <= 1 \
       is expected\",\n\
      \  \"scenarios\": [\n%s\n  ]\n}\n"
      jobs_hi
      (Domain.recommended_domain_count ())
      (String.concat ",\n"
         (List.map
            (fun (d, r1, rn, s1, sn, sp, det) -> json_row d r1 rn s1 sn sp det)
            rows))
  in
  Out_channel.with_open_text "BENCH_repair.json" (fun oc ->
      output_string oc json);
  Printf.printf "\nwrote BENCH_repair.json (jobs_high=%d, cores=%d)\n" jobs_hi
    (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Static pruning (BENCH_dataflow.json)                                 *)
(* ------------------------------------------------------------------ *)

(* Defect 5's faulty counter with provably-dead code spliced in — an
   unread debug register and an if (1'b0) branch. Mutations confined to
   the dead region leave [Dataflow.prune_hash] unchanged, so this is the
   scenario that exercises the dead-edit lane hard (real benchmark
   designs carry little statically-dead code). *)
let dead_code_problem () : Cirfix.Problem.t =
  let d = Bench_suite.Defects.find 5 in
  let p = Bench_suite.Projects.find d.project in
  let faulty =
    let src =
      List.fold_left
        (fun src rw -> Bench_suite.Defects.replace_once ~defect:d.id src rw)
        (Bench_suite.Projects.design_source p)
        d.rewrites
    in
    Bench_suite.Defects.replace_once ~defect:d.id src
      ("reg overflow_out;", "reg overflow_out;\n  reg [3:0] dbg_trace;")
  in
  let faulty =
    Bench_suite.Defects.replace_once ~defect:d.id faulty
      ( "begin: COUNTER",
        "begin: COUNTER\n\
         \    dbg_trace <= counter_out;\n\
         \    if (1'b0) begin\n\
         \      dbg_trace <= 4'b0000;\n\
         \    end" )
  in
  Cirfix.Problem.make ~name:"counter#5+dead" ~faulty
    ~golden:(Bench_suite.Projects.design_source p)
    ~testbench:(Bench_suite.Projects.tb_source p)
    ~target:d.target
    (Bench_suite.Projects.spec p)

(* Measure what the static pruning lanes buy and what they cost: for the
   dead-code scenario and a slice of real scenarios, run the same seeded
   GP search and record simulations avoided (semantic folds + dead-edit
   skips), the semantic-hit rate over all evaluation requests, and the
   wall time spent inside the lanes as a fraction of the end-to-end
   repair time. *)
let dataflow_prune () =
  section "Static pruning: sims avoided vs analysis overhead (writes BENCH_dataflow.json)";
  let budget = if !quick then 1_500 else 6_000 in
  let runs =
    ("dead-code counter", None,
     fun () ->
       let cfg =
         {
           Cirfix.Config.default with
           seed = 1;
           pop_size = 200;
           max_generations = (if !quick then 4 else 8);
           max_probes = budget;
           max_wall_seconds = 600.0;
           (* dead code never executes, so fault localization would never
              target it; without this the dead-edit lane sits idle *)
           use_fault_loc = false;
         }
       in
       Cirfix.Gp.repair cfg (dead_code_problem ()))
    :: List.map
         (fun (id, probes) ->
           let d = Bench_suite.Defects.find id in
           ( Printf.sprintf "%s#%d" d.project d.id,
             Some d,
             fun () ->
               let cfg =
                 {
                   (Bench_suite.Runner.scenario_config d) with
                   seed = 1;
                   max_probes = probes;
                   max_wall_seconds = 600.0;
                 }
               in
               Cirfix.Gp.repair cfg (Bench_suite.Defects.problem d) ))
         (* small fast-simulating designs plus the heavyweight ones
            (i2c, sha3, sdram) where a probe costs tens of milliseconds;
            the heavy designs get a reduced probe budget to keep the
            artifact's wall time bounded *)
         (let heavy = if !quick then 400 else 2_000 in
          [
            (1, budget);
            (5, budget);
            (8, budget);
            (15, budget);
            (18, heavy);
            (21, heavy);
            (30, heavy);
          ])
  in
  Printf.printf "%-20s %8s %8s %9s %9s %10s %9s\n" "Scenario" "lookups"
    "probes" "sem-hits" "dead-skip" "hit-rate%" "lane-ms";
  let rows =
    List.map
      (fun (label, _, run) ->
        let r : Cirfix.Gp.result = run () in
        let avoided = r.semantic_hits + r.dead_edit_skips in
        let hit_rate =
          Cirfix.Stats.percent ~part:r.semantic_hits ~total:r.lookups
        in
        let overhead_pct =
          if r.wall_seconds > 0. then
            100. *. r.lane_seconds /. r.wall_seconds
          else 0.
        in
        Printf.printf "%-20s %8d %8d %9d %9d %9.2f%% %9.1f\n" label r.lookups
          r.probes r.semantic_hits r.dead_edit_skips hit_rate
          (1000. *. r.lane_seconds);
        (label, r, avoided, hit_rate, overhead_pct))
      runs
  in
  let total_avoided =
    List.fold_left (fun acc (_, _, a, _, _) -> acc + a) 0 rows
  in
  let total_lane =
    List.fold_left
      (fun acc (_, (r : Cirfix.Gp.result), _, _, _) -> acc +. r.lane_seconds)
      0. rows
  in
  let total_wall =
    List.fold_left
      (fun acc (_, (r : Cirfix.Gp.result), _, _, _) -> acc +. r.wall_seconds)
      0. rows
  in
  let overall_overhead =
    if total_wall > 0. then 100. *. total_lane /. total_wall else 0.
  in
  Printf.printf
    "\ntotal sims avoided statically: %d; analysis overhead %.2f%% of repair wall time\n"
    total_avoided overall_overhead;
  let json =
    Printf.sprintf
      "{\n\
      \  \"sims_avoided\": %d,\n\
      \  \"analysis_overhead_pct\": %.3f,\n\
      \  \"scenarios\": [\n%s\n  ]\n}\n"
      total_avoided overall_overhead
      (String.concat ",\n"
         (List.map
            (fun (label, (r : Cirfix.Gp.result), avoided, hit_rate, overhead)
            ->
              Printf.sprintf
                "    { \"scenario\": \"%s\", \"lookups\": %d, \"probes\": %d,\n\
                \      \"semantic_hits\": %d, \"dead_edit_skips\": %d,\n\
                \      \"sims_avoided\": %d, \"semantic_hit_rate_pct\": %.3f,\n\
                \      \"lane_seconds\": %.6f, \"wall_seconds\": %.3f,\n\
                \      \"analysis_overhead_pct\": %.3f }"
                label r.lookups r.probes r.semantic_hits r.dead_edit_skips
                avoided hit_rate r.lane_seconds r.wall_seconds overhead)
            rows))
  in
  Out_channel.with_open_text "BENCH_dataflow.json" (fun oc ->
      output_string oc json);
  Printf.printf "wrote BENCH_dataflow.json\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let perf () =
  section "Micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let counter_src = Corpus.read "counter.v" in
  let tb_src = Corpus.read "counter_tb.v" in
  let full = counter_src ^ "\n" ^ tb_src in
  let design = Result.get_ok (Verilog.Parser.parse_design_result full) in
  let spec : Sim.Simulate.spec =
    { top = "counter_tb"; clock = "counter_tb.clk"; dut_path = "counter_tb.dut" }
  in
  let d4 = Bench_suite.Defects.find 4 in
  let prob = Bench_suite.Defects.problem d4 in
  let original = Cirfix.Problem.target_module prob in
  let ev = Cirfix.Evaluate.create Cirfix.Config.default prob in
  let faulty_trace =
    (Cirfix.Evaluate.eval_module ev original).Cirfix.Evaluate.trace
  in
  let rng = Random.State.make [| 1 |] in
  let fl = Cirfix.Fault_loc.localize original ~mismatch:[ "overflow_out" ] in
  let fl_stmts = Cirfix.Fault_loc.fl_statements original fl in
  (* Synthetic long trace (2000 samples, 2 signals): scoring walks the
     actual trace once against the columnar oracle, so its cost is linear
     in trace length. *)
  let long_trace which : Sim.Recorder.trace =
    List.init 2000 (fun i ->
        let v = (i * 7) + which in
        {
          Sim.Recorder.t = (i * 10) + 5;
          values =
            [
              ("count", Logic4.Packed.of_int 4 (v land 15));
              ("overflow_out", Logic4.Packed.of_int 1 ((v lsr 4) land 1));
            ];
        })
  in
  let long_expected = Cirfix.Oracle.of_trace (long_trace 0)
  and long_actual = long_trace 3 in
  let tests =
    [
      Test.make ~name:"T2: parse counter+tb" (Staged.stage (fun () ->
          ignore (Verilog.Parser.parse_design_result full)));
      Test.make ~name:"T2: simulate counter tb" (Staged.stage (fun () ->
          ignore (Sim.Simulate.run design spec)));
      Test.make ~name:"T3: fitness evaluation" (Staged.stage (fun () ->
          ignore
            (Cirfix.Fitness.score ~phi:2.0 ~expected:prob.oracle
               ~actual:faulty_trace)));
      Test.make ~name:"T3: fitness long trace (2000)" (Staged.stage (fun () ->
          ignore
            (Cirfix.Fitness.score ~phi:2.0 ~expected:long_expected
               ~actual:long_actual)));
      Test.make ~name:"T3: fault localization" (Staged.stage (fun () ->
          ignore (Cirfix.Fault_loc.localize original ~mismatch:[ "overflow_out" ])));
      Test.make ~name:"T3: mutation draw" (Staged.stage (fun () ->
          ignore (Cirfix.Mutate.mutate rng Cirfix.Config.default original ~fl_stmts)));
      Test.make ~name:"T3: patch materialize + digest" (Staged.stage (fun () ->
          ignore
            (Cirfix.Patch.digest original
               [ Cirfix.Patch.Delete (List.hd fl_stmts).Verilog.Ast.sid ])));
      Test.make ~name:"F2: regenerate verilog" (Staged.stage (fun () ->
          ignore (Verilog.Pp.module_to_string original)));
    ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"cirfix" tests) in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-40s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Observability overhead (BENCH_obs.json)                              *)
(* ------------------------------------------------------------------ *)

(* The disabled-sink contract: observability instrumentation (trace,
   metrics, journal, AND the self-profiler) costs a boolean test per
   site when no sink is active. Measured as min-of-N wall time of the
   same seeded repair on the smallest scenario in three modes: baseline
   (sinks never enabled), enabled (all four sinks active), and
   disabled-again after use. With --check (the @obs-overhead dune
   alias), fails if disabled-again exceeds baseline by more than 2% —
   with an absolute floor so sub-millisecond scheduler jitter cannot
   fail the gate. *)
let obs_overhead_check = ref false

let obs_overhead () =
  section "Observability overhead (writes BENCH_obs.json)";
  let d = Bench_suite.Defects.find 3 in
  let prob = Bench_suite.Defects.problem d in
  let cfg =
    {
      (Bench_suite.Runner.scenario_config d) with
      seed = 1;
      jobs = 1;
      pop_size = 40;
      max_generations = 3;
      max_probes = 400;
      max_wall_seconds = 600.0;
    }
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let min_of n f =
    ignore (time f);
    (* warmup *)
    let best = ref infinity in
    for _ = 1 to n do
      best := Float.min !best (time f)
    done;
    !best
  in
  let run () = ignore (Cirfix.Gp.repair cfg prob) in
  let journal_tmp = Filename.temp_file "cirfix_obs" ".jsonl" in
  let enabled_records = ref 0 in
  let enabled_events = ref 0 in
  let enabled_profile_paths = ref 0 in
  let run_enabled () =
    Obs.Trace.start ();
    Obs.Metrics.set_enabled true;
    Obs.Journal.open_file journal_tmp;
    Obs.Profile.start ();
    ignore (Cirfix.Gp.repair cfg prob);
    enabled_records := Obs.Journal.records ();
    enabled_events := Obs.Trace.events ();
    Obs.Profile.stop ();
    enabled_profile_paths :=
      List.length (Obs.Profile.report ()).Obs.Profile.r_paths;
    Obs.Journal.close ();
    Obs.Metrics.set_enabled false;
    Obs.Metrics.reset ();
    ignore (Obs.Trace.stop ())
  in
  let t_baseline = min_of 5 run in
  let t_enabled = min_of 5 run_enabled in
  let t_disabled = min_of 5 run in
  (try Sys.remove journal_tmp with Sys_error _ -> ());
  let ratio b = if t_baseline > 0. then b /. t_baseline else 0. in
  Printf.printf "baseline (sinks never on):   %8.2f ms\n" (t_baseline *. 1e3);
  Printf.printf "enabled (trace+metrics+jnl): %8.2f ms  (%.2fx)\n"
    (t_enabled *. 1e3) (ratio t_enabled);
  Printf.printf "disabled again after use:    %8.2f ms  (%.2fx)\n"
    (t_disabled *. 1e3) (ratio t_disabled);
  Printf.printf "enabled run: %d journal records, %d trace events, %d profile paths\n"
    !enabled_records !enabled_events !enabled_profile_paths;
  let json =
    Printf.sprintf
      "{\n\
      \  \"scenario\": %d,\n\
      \  \"baseline_ms\": %.3f,\n\
      \  \"enabled_ms\": %.3f,\n\
      \  \"disabled_ms\": %.3f,\n\
      \  \"disabled_overhead\": %.4f,\n\
      \  \"journal_records\": %d,\n\
      \  \"trace_events\": %d,\n\
      \  \"profile_paths\": %d\n\
       }\n"
      d.id (t_baseline *. 1e3) (t_enabled *. 1e3) (t_disabled *. 1e3)
      (ratio t_disabled) !enabled_records !enabled_events
      !enabled_profile_paths
  in
  Out_channel.with_open_text "BENCH_obs.json" (fun oc -> output_string oc json);
  Printf.printf "wrote BENCH_obs.json\n";
  if !obs_overhead_check then begin
    if !enabled_records = 0 then (
      Printf.eprintf "obs-overhead: enabled run produced no journal records\n";
      exit 1);
    if !enabled_events = 0 then (
      Printf.eprintf "obs-overhead: enabled run produced no trace events\n";
      exit 1);
    if !enabled_profile_paths = 0 then (
      Printf.eprintf "obs-overhead: enabled run produced no profile paths\n";
      exit 1);
    if
      ratio t_disabled > 1.02
      && t_disabled -. t_baseline > 0.005 (* absolute jitter floor: 5 ms *)
    then (
      Printf.eprintf
        "obs-overhead: disabled-sink overhead %.1f%% exceeds the 2%% budget\n"
        ((ratio t_disabled -. 1.) *. 100.);
      exit 1);
    Printf.printf "obs-overhead check passed (disabled overhead %.1f%%)\n"
      ((ratio t_disabled -. 1.) *. 100.)
  end

(* ------------------------------------------------------------------ *)
(* Simulation backend throughput (BENCH_sim.json)                       *)
(* ------------------------------------------------------------------ *)

(* Per-project sims/sec under the event engine and the compiled cycle
   evaluator, plus the compile-time amortization curve: the one-off cost
   of lowering a design (elaborate + compile) against the per-run saving,
   and the run count at which the compiled backend breaks even. Run
   times are medians over repeated simulations with the artifact cache
   warm (the repair loop's steady state — one design, thousands of
   candidate runs). Projects the compiler rejects are reported as
   fallbacks with the reason, never skipped silently. *)
let sim_perf () =
  section "Simulation backend throughput (writes BENCH_sim.json)";
  let reps = if !quick then 7 else 21 in
  let median_time f =
    ignore (f ());
    (* warmup: fills the artifact cache / warms allocator *)
    let samples =
      List.init reps (fun _ ->
          let t0 = Unix.gettimeofday () in
          ignore (f ());
          Unix.gettimeofday () -. t0)
    in
    Cirfix.Stats.median samples
  in
  Printf.printf "%-22s %12s %12s %8s %11s %10s\n" "project" "event/s"
    "compiled/s" "speedup" "compile(ms)" "breakeven";
  let rows =
    List.map
      (fun (p : Bench_suite.Projects.t) ->
        let spec = Bench_suite.Projects.spec p in
        let src =
          Bench_suite.Projects.design_source p ^ "\n"
          ^ Bench_suite.Projects.tb_source p
        in
        let design = Result.get_ok (Verilog.Parser.parse_design_result src) in
        let run backend () = Sim.Simulate.run ~backend design spec in
        let backend_used =
          match run Sim.Simulate.Compiled () with
          | Ok r -> Sim.Simulate.backend_used_to_string r.backend_used
          | Error (Sim.Simulate.Elab_failure e) -> "elab-error:" ^ e
        in
        let t_event = median_time (run Sim.Simulate.Event) in
        let eligible = String.equal backend_used "compiled" in
        if not eligible then begin
          Printf.printf "%-22s %12.1f %12s %8s %11s %10s  (%s)\n" p.name
            (1. /. t_event) "-" "-" "-" "-" backend_used;
          (p, backend_used, t_event, None)
        end
        else begin
          let t_compiled = median_time (run Sim.Simulate.Compiled) in
          let t_compile_once =
            median_time (fun () ->
                Sim.Compile.compile
                  (Sim.Elaborate.elaborate design ~top:spec.Sim.Simulate.top))
          in
          let speedup = t_event /. t_compiled in
          (* Runs needed before compile cost is paid back by the per-run
             saving; never pays back when the compiled run is slower. *)
          let breakeven =
            if t_event > t_compiled then
              Some
                (int_of_float
                   (Float.ceil (t_compile_once /. (t_event -. t_compiled))))
            else None
          in
          Printf.printf "%-22s %12.1f %12.1f %7.2fx %11.2f %10s\n" p.name
            (1. /. t_event) (1. /. t_compiled) speedup
            (1000. *. t_compile_once)
            (match breakeven with Some n -> string_of_int n | None -> "never");
          (p, backend_used, t_event, Some (t_compiled, t_compile_once, speedup, breakeven))
        end)
      Bench_suite.Projects.all
  in
  let eligible =
    List.filter_map
      (fun (p, _, te, c) -> Option.map (fun c -> (p, te, c)) c)
      rows
  in
  let speedups = List.map (fun (_, _, (_, _, s, _)) -> s) eligible in
  let fallbacks = List.filter (fun (_, b, _, _) -> b <> "compiled") rows in
  Printf.printf
    "\n%d/%d projects compiled-eligible (%d fallbacks); median speedup %.2fx, \
     best %.2fx\n"
    (List.length eligible) (List.length rows) (List.length fallbacks)
    (Cirfix.Stats.median speedups)
    (List.fold_left Float.max 0. speedups);
  let json_row ((p : Bench_suite.Projects.t), backend_used, t_event, compiled) =
    let base =
      Printf.sprintf
        "    { \"project\": \"%s\", \"backend_used\": \"%s\",\n\
        \      \"sims_per_sec_event\": %.1f"
        p.name (String.escaped backend_used) (1. /. t_event)
    in
    match compiled with
    | None -> base ^ " }"
    | Some (t_compiled, t_compile_once, speedup, breakeven) ->
        (* Amortized cost ratio (compiled vs event) after n runs of one
           design: the curve the repair loop rides down as candidates of
           a single project reuse the cached artifact. *)
        let curve =
          List.map
            (fun n ->
              let nf = float_of_int n in
              Printf.sprintf "{ \"runs\": %d, \"cost_ratio\": %.3f }" n
                ((t_compile_once +. (nf *. t_compiled)) /. (nf *. t_event)))
            [ 1; 10; 100; 1000 ]
        in
        Printf.sprintf
          "%s,\n\
          \      \"sims_per_sec_compiled\": %.1f, \"speedup\": %.3f,\n\
          \      \"compile_ms\": %.3f, \"breakeven_runs\": %s,\n\
          \      \"amortization\": [%s] }"
          base (1. /. t_compiled) speedup
          (1000. *. t_compile_once)
          (match breakeven with Some n -> string_of_int n | None -> "null")
          (String.concat ", " curve)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"reps_per_median\": %d,\n\
      \  \"eligible_projects\": %d,\n\
      \  \"fallback_projects\": %d,\n\
      \  \"median_speedup\": %.3f,\n\
      \  \"note\": \"sims/sec = whole simulations of the project testbench \
       per second, median of %d runs, artifact cache warm; both backends \
       run on one scheduler over the same packed values, and the compiled \
       one adds the levelized combinational cloud and runs clocked and \
       clock-generator processes as direct scheduler callbacks, while \
       other processes stay fibers as in the event backend\",\n\
      \  \"projects\": [\n%s\n  ]\n}\n"
      reps (List.length eligible) (List.length fallbacks)
      (Cirfix.Stats.median speedups)
      reps
      (String.concat ",\n" (List.map json_row rows))
  in
  Out_channel.with_open_text "BENCH_sim.json" (fun oc -> output_string oc json);
  Printf.printf "wrote BENCH_sim.json\n"

(* ------------------------------------------------------------------ *)
(* Simulator self-profile: per-edge cost ledger (BENCH_profile.json)    *)
(* ------------------------------------------------------------------ *)

(* Where each simulated nanosecond goes, per recorded clock edge, for
   every suite project on both backends: the self-profiler's per-region
   ledger (elab / setup / comb / active / nba / monitor / advance /
   collect), attribution coverage against measured wall time, and the
   hottest process frames. One unprofiled warm-up fills the artifact
   cache so a compiled cache miss does not pollute the ledger. *)
let profile_perf () =
  section "Simulator self-profile: per-edge cost ledger (writes BENCH_profile.json)";
  let runs = if !quick then 10 else 30 in
  let backend_json name = function
    | Error (Sim.Simulate.Elab_failure e) ->
        Obs.Json.Obj
          [
            ("backend", Obs.Json.Str name);
            ("error", Obs.Json.Str e);
          ]
    | Ok { Sim.Simulate.used; report; wall_ns; edges } ->
        let per_edge ns =
          if edges = 0 then 0. else float_of_int ns /. float_of_int edges
        in
        let rows select =
          Obs.Json.List
            (List.map
               (fun (n, ns, count) ->
                 Obs.Json.Obj
                   [
                     ("name", Obs.Json.Str n);
                     ("ns_per_edge", Obs.Json.Float (per_edge ns));
                     ("count", Obs.Json.Int count);
                   ])
               select)
        in
        Obs.Json.Obj
          [
            ("backend", Obs.Json.Str name);
            ( "backend_used",
              Obs.Json.Str (Sim.Simulate.backend_used_to_string used) );
            ("edges", Obs.Json.Int edges);
            ("wall_ns", Obs.Json.Int wall_ns);
            ("attributed_ns", Obs.Json.Int report.r_total_ns);
            ( "coverage",
              Obs.Json.Float
                (if wall_ns = 0 then 1.0
                 else float_of_int report.r_total_ns /. float_of_int wall_ns)
            );
            ("ns_per_edge", Obs.Json.Float (per_edge report.r_total_ns));
            ("regions", rows (Obs.Profile.regions report));
            ( "top_processes",
              rows
                (List.filteri (fun i _ -> i < 5) (Sim.Simulate.proc_frames report))
            );
          ]
  in
  Printf.printf "%-22s %10s %14s %14s %9s %9s\n" "project" "edges/run"
    "event ns/edge" "comp ns/edge" "cov(ev)" "cov(cp)";
  let rows =
    List.map
      (fun (p : Bench_suite.Projects.t) ->
        let spec = Bench_suite.Projects.spec p in
        let src =
          Bench_suite.Projects.design_source p ^ "\n"
          ^ Bench_suite.Projects.tb_source p
        in
        let design = Result.get_ok (Verilog.Parser.parse_design_result src) in
        let profile backend = Sim.Simulate.profile ~runs ~backend design spec in
        let ev = profile Sim.Simulate.Event in
        let cp = profile Sim.Simulate.Compiled in
        let cell = function
          | Error _ -> ("-", "-")
          | Ok { Sim.Simulate.report = r; wall_ns; edges; _ } ->
              ( (if edges = 0 then "-"
                 else
                   Printf.sprintf "%.1f"
                     (float_of_int r.r_total_ns /. float_of_int edges)),
                if wall_ns = 0 then "-"
                else
                  Printf.sprintf "%.1f%%"
                    (100. *. float_of_int r.r_total_ns /. float_of_int wall_ns)
              )
        in
        let e_ns, e_cov = cell ev and c_ns, c_cov = cell cp in
        let edges_per_run =
          match ev with Ok p -> p.edges / runs | Error _ -> 0
        in
        Printf.printf "%-22s %10d %14s %14s %9s %9s\n" p.name edges_per_run
          e_ns c_ns e_cov c_cov;
        Obs.Json.Obj
          [
            ("project", Obs.Json.Str p.name);
            ("edges_per_run", Obs.Json.Int edges_per_run);
            ( "backends",
              Obs.Json.List [ backend_json "event" ev; backend_json "compiled" cp ]
            );
          ])
      Bench_suite.Projects.all
  in
  let json =
    Obs.Json.Obj
      [
        ("runs_per_measurement", Obs.Json.Int runs);
        ( "note",
          Obs.Json.Str
            "ns/edge = profiler-attributed nanoseconds per recorded clock \
             edge; coverage = attributed / measured wall time over the \
             profiled runs. Regions are inclusive of nested process and \
             node frames; top_processes are self-time leaves." );
        ("projects", Obs.Json.List rows);
      ]
  in
  Out_channel.with_open_text "BENCH_profile.json" (fun oc ->
      output_string oc (Obs.Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote BENCH_profile.json\n"

(* ------------------------------------------------------------------ *)
(* Campaign throughput (BENCH_campaign.json)                            *)
(* ------------------------------------------------------------------ *)

(* Corpus-level repair rate and cost over a FIXED scenario subset x 2
   seeds at half budget — deliberately the same configuration in quick
   and full mode, so the committed baseline and a @bench-check re-measure
   always compare like against like. repair_rate gates higher-better,
   the wall columns lower-better (bench/compare.ml). *)
let campaign_perf () =
  section "Campaign: corpus repair rate and cost (writes BENCH_campaign.json)";
  let ids = [ 1; 3; 4; 5; 6; 7 ] in
  let seeds = 2 in
  let budget_scale = 0.5 in
  let scenarios = List.map Bench_suite.Defects.find ids in
  let out_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cirfix-campaign-bench-%d" (Unix.getpid ()))
  in
  let t0 = Unix.gettimeofday () in
  let results =
    Bench_suite.Campaign.run
      ~config:(Bench_suite.Runner.scenario_config ~budget_scale)
      ~jobs:(Cirfix.Config.default_jobs ()) ~out_dir
      (Bench_suite.Campaign.jobs ~scenarios ~seeds)
  in
  let total_wall = Unix.gettimeofday () -. t0 in
  (* The journals/manifest only exist to exercise the real campaign path;
     the artifact numbers come from the in-process results. *)
  (try
     Array.iter
       (fun f -> Sys.remove (Filename.concat out_dir f))
       (Sys.readdir out_dir);
     Unix.rmdir out_dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  let mean = function
    | [] -> 0.
    | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
  in
  Printf.printf "%-24s %12s %12s %12s\n" "Scenario" "repair rate" "mean wall"
    "mean probes";
  let rows =
    List.map
      (fun id ->
        let rs =
          List.filter
            (fun (r : Bench_suite.Campaign.job_result) ->
              r.r_job.c_defect.id = id)
            results
        in
        let n = List.length rs in
        let repaired =
          List.length
            (List.filter
               (fun (r : Bench_suite.Campaign.job_result) ->
                 r.r_outcome = Bench_suite.Campaign.Repaired)
               rs)
        in
        let rate =
          if n = 0 then 0. else float_of_int repaired /. float_of_int n
        in
        let wall = mean (List.map (fun r -> r.Bench_suite.Campaign.r_wall) rs) in
        let probes =
          mean
            (List.map
               (fun r -> float_of_int r.Bench_suite.Campaign.r_probes)
               rs)
        in
        let project =
          match rs with
          | r :: _ -> r.r_job.c_defect.project
          | [] -> "?"
        in
        Printf.printf "%2d %-21s %11.0f%% %11.3fs %12.0f\n" id project
          (100. *. rate) wall probes;
        (id, project, rate, wall, probes))
      ids
  in
  let jobs_total = List.length results in
  let repaired_total =
    List.length
      (List.filter
         (fun (r : Bench_suite.Campaign.job_result) ->
           r.r_outcome = Bench_suite.Campaign.Repaired)
         results)
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"seeds\": %d,\n\
      \  \"budget_scale\": %.2f,\n\
      \  \"note\": \"fixed subset, identical in quick and full mode; \
       repair_rate gates higher-better, wall columns lower-better\",\n\
      \  \"repair_rate\": %.4f,\n\
      \  \"total_wall_seconds\": %.3f,\n\
      \  \"scenarios\": [\n%s\n  ]\n}\n"
      seeds budget_scale
      (if jobs_total = 0 then 0.
       else float_of_int repaired_total /. float_of_int jobs_total)
      total_wall
      (String.concat ",\n"
         (List.map
            (fun (id, project, rate, wall, probes) ->
              Printf.sprintf
                "    { \"id\": %d, \"project\": \"%s\", \"repair_rate\": \
                 %.4f,\n\
                \      \"mean_wall_seconds\": %.3f, \"mean_probes\": %.0f }"
                id project rate wall probes)
            rows))
  in
  Out_channel.with_open_text "BENCH_campaign.json" (fun oc ->
      output_string oc json);
  Printf.printf "wrote BENCH_campaign.json\n"

(* ------------------------------------------------------------------ *)

let artifacts =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("figure2", figure2);
    ("figure3", figure3);
    ("rq1", rq1);
    ("rq2", rq2);
    ("rq3", rq3);
    ("rq4", rq4);
    ("ablation-fixloc", ablation_fixloc);
    ("ablation-phi", ablation_phi);
    ("ablation-params", ablation_params);
    ("repair-perf", repair_perf);
    ("sim-perf", sim_perf);
    ("dataflow-prune", dataflow_prune);
    ("obs-overhead", obs_overhead);
    ("profile-perf", profile_perf);
    ("campaign-perf", campaign_perf);
    ("perf", perf);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args =
    List.filter
      (fun a ->
        if a = "--full" then (
          quick := false;
          false)
        else if a = "--quick" then (
          quick := true;
          false)
        else if a = "--check" then (
          obs_overhead_check := true;
          false)
        else true)
      args
  in
  match args with
  | [] ->
      Printf.printf "CirFix evaluation harness (quick=%b)\n" !quick;
      List.iter (fun (_, f) -> f ()) artifacts
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name artifacts with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown artifact %s; known: %s\n" name
                (String.concat ", " (List.map fst artifacts));
              exit 1)
        names
