(* Tests for the race-detection subsystem: the static elaboration-aware
   analyzer (Verilog.Race), the full-case refinement of the latch lint,
   the dynamic same-timestep access checker (Sim.Runtime), and their
   integration into candidate evaluation (Rejected_racy, race counters,
   and determinism across the parallelism degree). *)

let parse src =
  match Verilog.Parser.parse_design_result src with
  | Ok d -> d
  | Error e -> Alcotest.fail e

let parse_m src =
  match parse src with [ m ] -> m | _ -> Alcotest.fail "one module expected"

let rules findings = List.map (fun (f : Verilog.Lint.finding) -> f.rule) findings

let has rule findings = List.mem rule (rules findings)

(* --- Static analyzer: the four hazard classes ------------------------- *)

let ww_src =
  "module top(clk); input clk; reg r;\n\
   always @(posedge clk) r = 1'b0;\n\
   always @(posedge clk) r = 1'b1;\n\
   endmodule"

let test_static_write_write () =
  let fs = Verilog.Race.check_module (parse_m ww_src) in
  Alcotest.(check bool) "flags write-write" true (has "write-write-race" fs);
  let f = List.find (fun (f : Verilog.Lint.finding) -> f.rule = "write-write-race") fs in
  Alcotest.(check bool) "error severity" true (f.severity = Verilog.Lint.Error)

let test_static_blocking_rw () =
  let m =
    parse_m
      "module top(clk); input clk; reg a; reg b;\n\
       always @(posedge clk) a = 1'b1;\n\
       always @(posedge clk) b = a;\n\
       endmodule"
  in
  Alcotest.(check bool) "flags blocking read-write" true
    (has "blocking-read-write" (Verilog.Race.check_module m))

let test_static_mixed_assign () =
  let m =
    parse_m
      "module top(clk); input clk; reg r;\n\
       always @(posedge clk) r = 1'b0;\n\
       always @(negedge clk) r <= 1'b1;\n\
       endmodule"
  in
  Alcotest.(check bool) "flags mixed assignment styles" true
    (has "mixed-blocking-nonblocking" (Verilog.Race.check_module m))

let test_static_stale_read () =
  let m =
    parse_m
      "module top(a, b, y); input a, b; output y; reg y;\n\
       always @(a) y = a & b;\n\
       endmodule"
  in
  Alcotest.(check bool) "flags stale read" true
    (has "stale-read" (Verilog.Race.check_module m))

(* --- Static analyzer: near-misses stay clean -------------------------- *)

let test_static_nba_cross_read_clean () =
  (* The canonical safe idiom: NBA writes mean cross-block reads observe
     pre-edge values regardless of scheduler order. *)
  let m =
    parse_m
      "module top(clk); input clk; reg a; reg b;\n\
       always @(posedge clk) a <= 1'b1;\n\
       always @(posedge clk) b <= a;\n\
       endmodule"
  in
  Alcotest.(check (list string)) "clean" []
    (rules (Verilog.Race.check_module m))

let test_static_opposite_edges_clean () =
  (* Writer and reader trigger on opposite edges: never the same region. *)
  let m =
    parse_m
      "module top(clk); input clk; reg a; reg b;\n\
       always @(negedge clk) a = 1'b1;\n\
       always @(posedge clk) b = a;\n\
       endmodule"
  in
  Alcotest.(check bool) "no blocking-read-write" false
    (has "blocking-read-write" (Verilog.Race.check_module m))

let test_static_star_clean () =
  let m =
    parse_m
      "module top(a, b, y); input a, b; output y; reg y;\n\
       always @(*) y = a & b;\n\
       endmodule"
  in
  Alcotest.(check (list string)) "clean" []
    (rules (Verilog.Race.check_module m))

let test_static_initial_exempt () =
  (* Initial blocks are testbench stimulus; initializing a register that a
     clocked process also writes is not a race. *)
  let m =
    parse_m
      "module top(clk); input clk; reg r;\n\
       initial r = 1'b0;\n\
       always @(posedge clk) r <= 1'b1;\n\
       endmodule"
  in
  Alcotest.(check (list string)) "clean" []
    (rules (Verilog.Race.check_module m))

let test_static_hazard_filter () =
  (* Only the requested hazard classes are checked. *)
  let m = parse_m ww_src in
  Alcotest.(check (list string)) "filtered out" []
    (rules (Verilog.Race.check_module ~hazards:[ Verilog.Race.Stale_read ] m))

(* --- Static analyzer: hierarchy flattening ---------------------------- *)

let hier_src =
  "module drv(c, o); input c; output o; reg o;\n\
   always @(posedge c) o = 1'b1;\n\
   endmodule\n\
   module top(clk); input clk; wire n;\n\
   drv d1(clk, n);\n\
   drv d2(clk, n);\n\
   endmodule"

let test_static_cross_instance_write_write () =
  (* Two instances of the same module drive one parent net: the port
     aliasing must merge d1.o, d2.o and n into one signal. *)
  let fs = Verilog.Race.check_design ~top:"top" (parse hier_src) in
  Alcotest.(check bool) "flags cross-instance write-write" true
    (has "write-write-race" fs)

let test_static_roots () =
  Alcotest.(check (list string)) "never-instantiated modules" [ "top" ]
    (Verilog.Race.roots (parse hier_src))

let test_static_screen () =
  Alcotest.(check bool) "racy module screened" true
    (Verilog.Race.screen ~hazards:Verilog.Race.all_hazards (parse_m ww_src)
    <> None);
  let clean =
    parse_m
      "module top(clk); input clk; reg q;\n\
       always @(posedge clk) q <= 1'b1;\n\
       endmodule"
  in
  Alcotest.(check (option string)) "clean module passes" None
    (Verilog.Race.screen ~hazards:Verilog.Race.all_hazards clean)

let test_static_benchmarks_clean () =
  (* Zero findings across every shipped design under both testbenches. *)
  List.iter
    (fun (p : Bench_suite.Projects.t) ->
      List.iter
        (fun (label, tb) ->
          let d = parse (Bench_suite.Projects.design_source p ^ "\n" ^ tb) in
          let fs = Verilog.Race.check_design ~top:p.tb_module d in
          Alcotest.(check (list string))
            (Printf.sprintf "%s/%s race-clean" p.name label)
            [] (rules fs))
        [
          ("tb", Bench_suite.Projects.tb_source p);
          ("tb2", Bench_suite.Projects.tb2_source p);
        ])
    Bench_suite.Projects.all

(* --- Lint: full-case refinement of the latch check -------------------- *)

let test_lint_full_case_no_default () =
  (* All 2^w selector values enumerated: complete without a default. *)
  let m =
    parse_m
      "module m(s, y); input s; output y; reg y;\n\
       always @(*) case (s) 1'b0: y = 1'b0; 1'b1: y = 1'b1; endcase\n\
       endmodule"
  in
  Alcotest.(check bool) "no latch" false
    (has "inferred-latch" (Verilog.Lint.check_module m))

let test_lint_partial_case_no_default () =
  let m =
    parse_m
      "module m(s, y); input s; input [1:0] sel; output y; reg y;\n\
       always @(*) case ({s, sel[0]}) 2'b00: y = 1'b0; 2'b01: y = 1'b1;\n\
       2'b10: y = 1'b0; endcase\n\
       endmodule"
  in
  Alcotest.(check bool) "latch inferred" true
    (has "inferred-latch" (Verilog.Lint.check_module m))

let test_lint_casez_still_needs_default () =
  (* casez patterns can hide wildcard bits; stay conservative. *)
  let m =
    parse_m
      "module m(s, y); input s; output y; reg y;\n\
       always @(*) casez (s) 1'b0: y = 1'b0; 1'b1: y = 1'b1; endcase\n\
       endmodule"
  in
  Alcotest.(check bool) "latch inferred" true
    (has "inferred-latch" (Verilog.Lint.check_module m))

(* --- Dynamic checker --------------------------------------------------- *)

(* Two clocked processes race through a blocking write of [a]; whether
   [out] sees the old or new value depends on scheduler order. *)
let racy_sim_src ~blocking =
  Printf.sprintf
    "module dut(c, q); input c; output q; reg q;\n\
     initial q = 0;\n\
     always @(posedge c) q <= 1'b1;\n\
     endmodule\n\
     module tb;\n\
     reg clk; reg a; reg b; reg out; wire q;\n\
     dut d(clk, q);\n\
     initial begin clk = 0; a = 0; b = 0; out = 0; #22 $finish; end\n\
     always #5 clk = ~clk;\n\
     always @(posedge clk) a %s b + 1;\n\
     always @(posedge clk) out %s a;\n\
     endmodule"
    (if blocking then "=" else "<=")
    (if blocking then "=" else "<=")

let sim_spec : Sim.Simulate.spec =
  { top = "tb"; clock = "tb.clk"; dut_path = "tb.d" }

let run_races src =
  match Sim.Simulate.run_source ~check_races:true ~source:src sim_spec with
  | Error (Sim.Simulate.Elab_failure e) -> Alcotest.fail e
  | Ok r -> r.races

let test_dynamic_flags_seeded_race () =
  match run_races (racy_sim_src ~blocking:true) with
  | [ e ] ->
      Alcotest.(check string) "raced variable" "tb.a" e.re_var;
      Alcotest.(check bool) "read-write" false e.re_write_write;
      Alcotest.(check bool) "writer attributed to a source node" true
        (e.re_writer_sid >= 0);
      Alcotest.(check bool) "other access attributed" true (e.re_other_sid >= 0)
  | rs -> Alcotest.failf "expected exactly one race, got %d" (List.length rs)

let test_dynamic_nba_clean () =
  Alcotest.(check int) "no races with NBA" 0
    (List.length (run_races (racy_sim_src ~blocking:false)))

let test_dynamic_off_by_default () =
  match
    Sim.Simulate.run_source ~source:(racy_sim_src ~blocking:true) sim_spec
  with
  | Error (Sim.Simulate.Elab_failure e) -> Alcotest.fail e
  | Ok r -> Alcotest.(check int) "checker off" 0 (List.length r.races)

let test_dynamic_benchmarks_clean () =
  (* The shipped suite must simulate race-free: the dynamic checker's
     false positives would otherwise pollute every repair trial. *)
  List.iter
    (fun (p : Bench_suite.Projects.t) ->
      let spec = Bench_suite.Projects.spec p in
      List.iter
        (fun (label, tb) ->
          let source = Bench_suite.Projects.design_source p ^ "\n" ^ tb in
          match Sim.Simulate.run_source ~check_races:true ~source spec with
          | Error (Sim.Simulate.Elab_failure e) -> Alcotest.fail e
          | Ok r ->
              Alcotest.(check int)
                (Printf.sprintf "%s/%s dynamic race-clean" p.name label)
                0 (List.length r.races))
        [
          ("tb", Bench_suite.Projects.tb_source p);
          ("tb2", Bench_suite.Projects.tb2_source p);
        ])
    Bench_suite.Projects.all

(* --- Evaluation integration ------------------------------------------- *)

let screen_problem () =
  let golden =
    "module m(clk, q); input clk; output q; reg q;\n\
     initial q = 0;\n\
     always @(posedge clk) q <= ~q;\n\
     endmodule"
  in
  let faulty =
    "module m(clk, q); input clk; output q; reg q; reg r;\n\
     initial begin q = 0; r = 0; end\n\
     always @(posedge clk) r = 1'b1;\n\
     always @(posedge clk) r = 1'b0;\n\
     always @(posedge clk) q <= ~q;\n\
     endmodule"
  in
  let testbench =
    "module tb; reg clk; wire q;\n\
     m dut(clk, q);\n\
     initial begin clk = 0; #42 $finish; end\n\
     always #5 clk = ~clk;\n\
     endmodule"
  in
  Cirfix.Problem.make ~name:"race-screen" ~faulty ~golden ~testbench ~target:"m"
    { top = "tb"; clock = "tb.clk"; dut_path = "tb.dut" }

let test_evaluate_rejected_racy () =
  let problem = screen_problem () in
  let cfg = { Cirfix.Config.default with screen_races = true } in
  let ev = Cirfix.Evaluate.create cfg problem in
  let m = Cirfix.Problem.target_module problem in
  let o = Cirfix.Evaluate.eval_module ev m in
  (match o.status with
  | Cirfix.Evaluate.Rejected_racy msg ->
      Alcotest.(check bool) "reason names the rule" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "expected Rejected_racy");
  Alcotest.(check (float 0.0)) "fitness zero" 0.0 o.fitness;
  let count = Cirfix.Evaluate.get ev.table in
  Alcotest.(check int) "counted once" 1 (count Racy_rejects);
  Alcotest.(check int) "no simulation spent" 0 (count Probes);
  (* Memoized: a second evaluation must not recount. *)
  ignore (Cirfix.Evaluate.eval_module ev m);
  Alcotest.(check int) "memoized" 1 (count Racy_rejects)

let test_evaluate_screen_off_simulates () =
  let problem = screen_problem () in
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  let o = Cirfix.Evaluate.eval_module ev (Cirfix.Problem.target_module problem) in
  Alcotest.(check bool) "simulated when screening is off" true
    (o.status = Cirfix.Evaluate.Simulated);
  Alcotest.(check int) "no racy rejects" 0
    (Cirfix.Evaluate.get ev.table Racy_rejects)

let test_evaluate_runtime_races_counted () =
  let problem = screen_problem () in
  let cfg = { Cirfix.Config.default with check_races = true } in
  let ev = Cirfix.Evaluate.create cfg problem in
  let o = Cirfix.Evaluate.eval_module ev (Cirfix.Problem.target_module problem) in
  Alcotest.(check bool) "simulated" true (o.status = Cirfix.Evaluate.Simulated);
  Alcotest.(check bool) "dynamic write-write race observed" true (o.races > 0);
  Alcotest.(check int) "totalled on the evaluator" o.races
    (Cirfix.Evaluate.get ev.table Runtime_races)

(* --- GP integration: counters and jobs-independence -------------------- *)

let race_cfg (d : Bench_suite.Defects.t) ~jobs =
  {
    (Bench_suite.Runner.scenario_config d) with
    seed = 1;
    max_probes = 300;
    max_wall_seconds = 120.0;
    jobs;
    screen_races = true;
    check_races = true;
  }

let test_gp_reports_racy_rejects () =
  (* Mutating the decoder produces statically racy candidates (e.g. a
     second driver for an output): the screen must reject and count them. *)
  let d = Bench_suite.Defects.find 1 in
  let cfg =
    { (race_cfg d ~jobs:1) with max_probes = 2_000; pop_size = 500 }
  in
  let r = Cirfix.Gp.repair cfg (Bench_suite.Defects.problem d) in
  Alcotest.(check bool) "racy rejects reported" true
    (Cirfix.Evaluate.get r.counters Racy_rejects > 0)

let test_gp_race_knobs_deterministic () =
  let d = Bench_suite.Defects.find 1 in
  let prob = Bench_suite.Defects.problem d in
  let r1 = Cirfix.Gp.repair (race_cfg d ~jobs:1) prob in
  let r2 = Cirfix.Gp.repair (race_cfg d ~jobs:2) prob in
  Alcotest.(check (option string))
    "same minimized patch"
    (Option.map Cirfix.Patch.to_string r1.minimized)
    (Option.map Cirfix.Patch.to_string r2.minimized);
  let counts c =
    List.map (Cirfix.Evaluate.get c) Cirfix.Evaluate.all_counters
  in
  Alcotest.(check (list int)) "same counters" (counts r1.counters)
    (counts r2.counters);
  Alcotest.(check int) "same mutants" r1.mutants_generated r2.mutants_generated

let () =
  Alcotest.run "race"
    [
      ( "static",
        [
          Alcotest.test_case "write-write" `Quick test_static_write_write;
          Alcotest.test_case "blocking read-write" `Quick test_static_blocking_rw;
          Alcotest.test_case "mixed assignment" `Quick test_static_mixed_assign;
          Alcotest.test_case "stale read" `Quick test_static_stale_read;
          Alcotest.test_case "NBA cross-read clean" `Quick
            test_static_nba_cross_read_clean;
          Alcotest.test_case "opposite edges clean" `Quick
            test_static_opposite_edges_clean;
          Alcotest.test_case "@(*) clean" `Quick test_static_star_clean;
          Alcotest.test_case "initial exempt" `Quick test_static_initial_exempt;
          Alcotest.test_case "hazard filter" `Quick test_static_hazard_filter;
          Alcotest.test_case "cross-instance write-write" `Quick
            test_static_cross_instance_write_write;
          Alcotest.test_case "roots" `Quick test_static_roots;
          Alcotest.test_case "screen" `Quick test_static_screen;
          Alcotest.test_case "benchmarks clean" `Quick
            test_static_benchmarks_clean;
        ] );
      ( "full-case",
        [
          Alcotest.test_case "full case without default" `Quick
            test_lint_full_case_no_default;
          Alcotest.test_case "partial case latches" `Quick
            test_lint_partial_case_no_default;
          Alcotest.test_case "casez stays conservative" `Quick
            test_lint_casez_still_needs_default;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "seeded race flagged" `Quick
            test_dynamic_flags_seeded_race;
          Alcotest.test_case "NBA clean" `Quick test_dynamic_nba_clean;
          Alcotest.test_case "off by default" `Quick test_dynamic_off_by_default;
          Alcotest.test_case "benchmarks clean" `Quick
            test_dynamic_benchmarks_clean;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "rejected racy" `Quick test_evaluate_rejected_racy;
          Alcotest.test_case "screen off simulates" `Quick
            test_evaluate_screen_off_simulates;
          Alcotest.test_case "runtime races counted" `Quick
            test_evaluate_runtime_races_counted;
        ] );
      ( "gp",
        [
          Alcotest.test_case "reports racy rejects" `Quick
            test_gp_reports_racy_rejects;
          Alcotest.test_case "race knobs deterministic" `Quick
            test_gp_race_knobs_deterministic;
        ] );
    ]
