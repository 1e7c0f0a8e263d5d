(* Tests for the race-detection subsystem: the static elaboration-aware
   analyzer (Verilog.Race), the full-case refinement of the latch lint,
   and its integration into candidate evaluation (Rejected_racy, the
   racy-reject counter, and determinism across the parallelism degree). *)

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

(* An instance of a module on its own instantiation path is reported and
   not flattened: a self-instance and a two-module cycle, checked under
   an explicit top and as found by [roots]. *)
let test_static_recursive () =
  let recursive top d =
    List.filter
      (fun (f : Verilog.Lint.finding) ->
        f.rule = "recursive-instance" && f.severity = Verilog.Lint.Error)
      (Verilog.Race.check_design ~top d)
    |> List.map (fun (f : Verilog.Lint.finding) -> f.modname)
  in
  let self = parse "module a(x); input x; a u(.x(x)); endmodule" in
  Alcotest.(check (list string)) "self-instance" [ "a" ] (recursive "a" self);
  Alcotest.(check (list string)) "self-instance is a root" [ "a" ]
    (Verilog.Race.roots self);
  let mutual =
    parse
      "module b(x); input x; c u(.x(x)); endmodule\n\
       module c(x); input x; b u(.x(x)); endmodule"
  in
  Alcotest.(check (list string)) "two-module cycle" [ "b.u" ]
    (recursive "b" mutual);
  Alcotest.(check (list string)) "cycle entered at its first module" [ "b" ]
    (Verilog.Race.roots mutual)

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

(* --- GP integration: counters and jobs-independence -------------------- *)

let race_cfg (d : Bench_suite.Defects.t) ~jobs =
  {
    (Bench_suite.Runner.scenario_config d) with
    seed = 1;
    max_probes = 300;
    max_wall_seconds = 120.0;
    jobs;
    screen_races = true;
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

(* --- Port binding: one resolver for the analyses and the elaborator ----- *)

(* Four instances of one child, one per connection style. Each child
   blocking-assigns its output on the clock edge the parent reads it on,
   so Race reports one blocking-read-write per instance whose clock and
   output ports it aliased to the parent's nets. *)
let ports_child =
  "module child(clk, a, y); input clk; input a; output y; reg y;\n\
   always @(posedge clk) y = a;\n\
   endmodule\n"

let ports_src =
  ports_child
  ^ "module top(clk, p, o1, o2, o3, o4);\n\
     input clk, p; output o1, o2, o3, o4; reg r1, r2, r3, r4;\n\
     child u_pos(clk, p, o1);\n\
     child u_named(.y(o2), .clk(clk), .a(p));\n\
     child u_mixed(clk, .y(o3), .a(p));\n\
     child u_open(.clk(clk), .a(), .y(o4));\n\
     always @(posedge clk) begin r1 <= o1; r2 <= o2; r3 <= o3; r4 <= o4; end\n\
     endmodule"

let over_src =
  ports_child
  ^ "module top(clk, p, o1); input clk, p; output o1; reg r1;\n\
     child u_over(clk, p, o1, p);\n\
     always @(posedge clk) r1 <= o1;\n\
     endmodule"

let find_m (d : Verilog.Ast.design) name =
  List.find (fun (m : Verilog.Ast.module_decl) -> m.mod_id = name) d

(* Hierarchical child ports the dependence graph binds to a connection. *)
let deps_bound (d : Verilog.Ast.design) =
  List.concat_map
    (fun (n : Verilog.Deps.node) ->
      match n.kind with
      | Instance { inst; bindings; _ } ->
          List.filter_map
            (fun (b : Verilog.Deps.binding) ->
              Option.map (fun _ -> "top." ^ inst ^ "." ^ b.port) b.conn)
            bindings
      | _ -> [])
    (Verilog.Deps.nodes (Verilog.Deps.build ~design:d (find_m d "top")))
  |> List.sort compare

(* Child ports the elaborator drives from, or into, the parent. *)
let elaborate_bound (d : Verilog.Ast.design) =
  let el = Sim.Elaborate.elaborate d ~top:"top" in
  List.filter_map
    (fun (cb : Sim.Elaborate.comb) ->
      match cb.cb_desc with
      | CPortIn (_, v, _) | CPortOut (_, _, v) -> Some v.Sim.Runtime.v_name
      | CInit _ | CAssign _ -> None)
    el.combs
  |> List.sort compare

let slice_inputs (d : Verilog.Ast.design) out =
  (Verilog.Slice.slice ~design:d (find_m d "top") ~outputs:[ out ]).sl_inputs

let race_read_signals (d : Verilog.Ast.design) =
  Verilog.Race.check_design ~top:"top" d
  |> List.filter_map (fun (f : Verilog.Lint.finding) ->
         if f.rule = "blocking-read-write" then
           Some (List.hd (String.split_on_char ' ' f.message))
         else None)
  |> List.sort compare

let test_ports_styles () =
  let d = parse ports_src in
  let bound = elaborate_bound d in
  Alcotest.(check (list string)) "elaborator binds every connected port"
    [
      "top.u_mixed.a"; "top.u_mixed.clk"; "top.u_mixed.y"; "top.u_named.a";
      "top.u_named.clk"; "top.u_named.y"; "top.u_open.clk"; "top.u_open.y";
      "top.u_pos.a"; "top.u_pos.clk"; "top.u_pos.y";
    ]
    bound;
  Alcotest.(check (list string)) "graph binds the same ports" bound (deps_bound d);
  List.iter
    (fun o ->
      Alcotest.(check (list string)) ("slice inputs of " ^ o) [ "clk"; "p" ]
        (slice_inputs d o))
    [ "o1"; "o2"; "o3" ];
  Alcotest.(check (list string)) "slice skips the unconnected .a()" [ "clk" ]
    (slice_inputs d "o4");
  Alcotest.(check (list string)) "race aliases every output"
    [ "top.o1"; "top.o2"; "top.o3"; "top.o4" ]
    (race_read_signals d)

let test_ports_too_many_positional () =
  let d = parse over_src in
  (match Sim.Elaborate.elaborate d ~top:"top" with
  | _ -> Alcotest.fail "elaboration accepted a fourth positional connection"
  | exception Sim.Runtime.Elab_error msg ->
      Alcotest.(check string) "elaborator message"
        "too many positional connections for u_over" msg);
  Alcotest.(check (list string)) "graph drops the extra connection"
    [ "top.u_over.a"; "top.u_over.clk"; "top.u_over.y" ]
    (deps_bound d);
  Alcotest.(check (list string)) "slice inputs" [ "clk"; "p" ]
    (slice_inputs d "o1");
  Alcotest.(check (list string)) "race aliases the output" [ "top.o1" ]
    (race_read_signals d)

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
          Alcotest.test_case "recursive instances" `Quick test_static_recursive;
          Alcotest.test_case "screen" `Quick test_static_screen;
          Alcotest.test_case "benchmarks clean" `Quick
            test_static_benchmarks_clean;
        ] );
      ( "ports",
        [
          Alcotest.test_case "connection styles bind alike" `Quick
            test_ports_styles;
          Alcotest.test_case "too many positional" `Quick
            test_ports_too_many_positional;
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
      ( "evaluate",
        [
          Alcotest.test_case "rejected racy" `Quick test_evaluate_rejected_racy;
          Alcotest.test_case "screen off simulates" `Quick
            test_evaluate_screen_off_simulates;
        ] );
      ( "gp",
        [
          Alcotest.test_case "reports racy rejects" `Quick
            test_gp_reports_racy_rejects;
          Alcotest.test_case "race knobs deterministic" `Quick
            test_gp_race_knobs_deterministic;
        ] );
    ]
