(* Tests for the developer-facing tooling around the core pipeline: the
   lint pass, statement coverage, the ASCII waveform renderer, and the VCD
   structure beyond the smoke test in test_sim. *)

let parse src =
  match Verilog.Parser.parse_design_result src with
  | Ok d -> d
  | Error e -> Alcotest.fail e

let parse_m src =
  match parse src with [ m ] -> m | _ -> Alcotest.fail "one module expected"

let rules findings = List.map (fun (f : Verilog.Lint.finding) -> f.rule) findings

(* --- Lint ---------------------------------------------------------------- *)

let test_lint_clean_design () =
  List.iter
    (fun file ->
      let d = parse (Corpus.read file) in
      List.iter
        (fun (m, findings) ->
          let errors =
            List.filter
              (fun (f : Verilog.Lint.finding) -> f.severity = Verilog.Lint.Error)
              findings
          in
          Alcotest.(check int) (file ^ "/" ^ m ^ " error-free") 0
            (List.length errors))
        (Verilog.Lint.check_design d))
    [ "counter.v"; "fsm_full.v"; "i2c.v"; "sdram_controller.v" ]

let test_lint_incomplete_sensitivity () =
  let m =
    parse_m
      "module m(a, b, y); input a, b; output y; reg y;\n\
       always @(a) y = a & b;\n\
       endmodule"
  in
  Alcotest.(check bool) "flags b" true
    (List.mem "incomplete-sensitivity" (rules (Verilog.Lint.check_module m)))

let test_lint_star_is_complete () =
  let m =
    parse_m
      "module m(a, b, y); input a, b; output y; reg y;\n\
       always @(*) y = a & b;\n\
       endmodule"
  in
  Alcotest.(check bool) "no sensitivity finding" false
    (List.mem "incomplete-sensitivity" (rules (Verilog.Lint.check_module m)))

let test_lint_latch_inference () =
  let m =
    parse_m
      "module m(en, d, q); input en, d; output q; reg q;\n\
       always @(en or d) begin\n\
       if (en) q = d;\n\
       end\n\
       endmodule"
  in
  Alcotest.(check bool) "latch" true
    (List.mem "inferred-latch" (rules (Verilog.Lint.check_module m)));
  (* The complete version is clean. *)
  let m2 =
    parse_m
      "module m(en, d, q); input en, d; output q; reg q;\n\
       always @(en or d) begin\n\
       if (en) q = d; else q = 1'b0;\n\
       end\n\
       endmodule"
  in
  Alcotest.(check bool) "no latch" false
    (List.mem "inferred-latch" (rules (Verilog.Lint.check_module m2)))

let test_lint_case_default_completes () =
  let m =
    parse_m
      "module m(s, q); input [1:0] s; output q; reg q;\n\
       always @(s) begin\n\
       case (s) 2'b00: q = 1; default: q = 0; endcase\n\
       end\n\
       endmodule"
  in
  Alcotest.(check bool) "case with default is complete" false
    (List.mem "inferred-latch" (rules (Verilog.Lint.check_module m)))

let test_lint_assignment_styles () =
  let comb_nba =
    parse_m
      "module m(a, y); input a; output y; reg y;\n\
       always @(a) y <= a;\n\
       endmodule"
  in
  Alcotest.(check bool) "nba in comb" true
    (List.mem "nonblocking-in-comb" (rules (Verilog.Lint.check_module comb_nba)));
  let clocked_blk =
    parse_m
      "module m(c, a, y); input c, a; output y; reg y;\n\
       always @(posedge c) y = a;\n\
       endmodule"
  in
  Alcotest.(check bool) "blocking in clocked" true
    (List.mem "blocking-in-clocked"
       (rules (Verilog.Lint.check_module clocked_blk)))

let test_lint_mixed_sensitivity () =
  let m =
    parse_m
      "module m(c, a, y); input c, a; output y; reg y;\n\
       always @(posedge c or a) y <= a;\n\
       endmodule"
  in
  Alcotest.(check bool) "mixed" true
    (List.mem "mixed-sensitivity" (rules (Verilog.Lint.check_module m)))

let test_lint_free_running_always () =
  let m =
    parse_m "module m(y); output y; reg y;\nalways y = !y;\nendmodule"
  in
  Alcotest.(check bool) "free running" true
    (List.mem "free-running-always" (rules (Verilog.Lint.check_module m)))

let test_lint_multiple_drivers () =
  (* One structural driver per net: clean (near miss). *)
  let chain =
    parse_m
      "module m(a, y); input a; output y; reg r; wire y;\n\
       assign y = r;\n\
       assign r = a;\n\
       endmodule"
  in
  Alcotest.(check bool) "driver chain clean" false
    (List.mem "multiple-drivers" (rules (Verilog.Lint.check_module chain)));
  (* Mixed continuous/procedural drivers keep the specific message. *)
  let mixed =
    parse_m
      "module m(a, c, y); input a, c; output y; wire y;\n\
       assign y = a;\n\
       always @(posedge c) y <= a;\n\
       endmodule"
  in
  let mixed_findings = Verilog.Lint.check_module mixed in
  Alcotest.(check bool) "mixed driver" true
    (List.mem "multiple-drivers" (rules mixed_findings));
  let mixed_msg =
    List.find
      (fun (f : Verilog.Lint.finding) -> f.rule = "multiple-drivers")
      mixed_findings
  in
  Alcotest.(check bool) "mixed message" true
    (try
       ignore
         (Str.search_forward
            (Str.regexp_string "continuous and procedural")
            mixed_msg.message 0);
       true
     with Not_found -> false)

let test_lint_same_kind_multiple_drivers () =
  (* Two continuous assigns to the same net: structural conflict even
     though the driver kinds agree. *)
  let double_assign =
    parse_m
      "module m(a, b, y); input a, b; output y; wire y;\n\
       assign y = a;\n\
       assign y = b;\n\
       endmodule"
  in
  Alcotest.(check bool) "two assigns flagged" true
    (List.mem "multiple-drivers"
       (rules (Verilog.Lint.check_module double_assign)));
  (* Two clocked blocks writing the same reg. *)
  let double_always =
    parse_m
      "module m(c, a, b, q); input c, a, b; output q; reg q;\n\
       always @(posedge c) q <= a;\n\
       always @(posedge c) q <= b;\n\
       endmodule"
  in
  Alcotest.(check bool) "two always flagged" true
    (List.mem "multiple-drivers"
       (rules (Verilog.Lint.check_module double_always)));
  (* Near miss: two writes to the same reg inside ONE block are fine. *)
  let one_block =
    parse_m
      "module m(c, a, b, s, q); input c, a, b, s; output q; reg q;\n\
       always @(posedge c) begin if (s) q <= a; else q <= b; end\n\
       endmodule"
  in
  Alcotest.(check bool) "single block clean" false
    (List.mem "multiple-drivers" (rules (Verilog.Lint.check_module one_block)))

let test_lint_finding_carries_module () =
  let m =
    parse_m
      "module widget(a, b, y); input a, b; output y; wire y;\n\
       assign y = a;\n\
       assign y = b;\n\
       endmodule"
  in
  let f =
    List.find
      (fun (f : Verilog.Lint.finding) -> f.rule = "multiple-drivers")
      (Verilog.Lint.check_module m)
  in
  Alcotest.(check string) "modname recorded" "widget" f.modname;
  let rendered = Format.asprintf "%a" Verilog.Lint.pp_finding f in
  Alcotest.(check bool) "pp prints module:node" true
    (try
       ignore (Str.search_forward (Str.regexp_string "widget:") rendered 0);
       true
     with Not_found -> false)

let test_lint_parameters_not_flagged () =
  let m =
    parse_m
      "module m(s, y); input s; output y; reg y;\n\
       parameter ON = 1'b1;\n\
       always @(s) y = s & ON;\n\
       endmodule"
  in
  Alcotest.(check bool) "parameter exempt" false
    (List.mem "incomplete-sensitivity" (rules (Verilog.Lint.check_module m)))

(* --- Semantic analysis ---------------------------------------------------- *)

let analyze ?design ?checks m = Verilog.Analysis.check_module ?design ?checks m

let test_analysis_comb_loop_assigns () =
  let m =
    parse_m
      "module m(y); output y; wire a, b; wire y;\n\
       assign a = b;\n\
       assign b = a;\n\
       assign y = a;\n\
       endmodule"
  in
  let findings = analyze ~checks:[ Verilog.Analysis.Comb_loop ] m in
  Alcotest.(check bool) "assign cycle flagged" true
    (List.mem "comb-loop" (rules findings));
  Alcotest.(check bool) "is an error" true
    (List.exists
       (fun (f : Verilog.Lint.finding) ->
         f.rule = "comb-loop" && f.severity = Verilog.Lint.Error)
       findings);
  (* Near miss: an acyclic assign chain is clean. *)
  let chain =
    parse_m
      "module m(a, y); input a; output y; wire t; wire y;\n\
       assign t = a;\n\
       assign y = t;\n\
       endmodule"
  in
  Alcotest.(check bool) "acyclic chain clean" false
    (List.mem "comb-loop" (rules (analyze chain)))

let test_analysis_comb_loop_always_star () =
  let m =
    parse_m
      "module m(y); output y; reg x; wire y;\n\
       always @(*) x = x + 1;\n\
       assign y = x;\n\
       endmodule"
  in
  Alcotest.(check bool) "self loop through @(*)" true
    (List.mem "comb-loop" (rules (analyze m)));
  (* Near miss: x is not in the explicit sensitivity list, so writing x
     does not re-trigger the block — no zero-delay cycle. *)
  let gated =
    parse_m
      "module m(a, y); input a; output y; reg x; wire y;\n\
       always @(a) x = x + 1;\n\
       assign y = x;\n\
       endmodule"
  in
  Alcotest.(check bool) "not in sensitivity: clean" false
    (List.mem "comb-loop" (rules (analyze gated)))

let test_analysis_comb_loop_clocked_exempt () =
  (* q <= q + 1 under a clock edge is ordinary sequential logic. *)
  let m =
    parse_m
      "module m(c, q); input c; output q; reg [3:0] q;\n\
       initial q = 0;\n\
       always @(posedge c) q <= q + 1;\n\
       endmodule"
  in
  Alcotest.(check bool) "clocked increment clean" false
    (List.mem "comb-loop" (rules (analyze m)))

let test_analysis_comb_loop_ordering () =
  (* t = y; y = a; inside one comb block: t reads y's old value but y never
     reads t — per-assignment edges, so no cycle. *)
  let m =
    parse_m
      "module m(a, y); input a; output y; reg t; reg y;\n\
       always @(*) begin t = y; y = a; end\n\
       endmodule"
  in
  Alcotest.(check bool) "straight-line comb block clean" false
    (List.mem "comb-loop" (rules (analyze m)));
  (* Whereas y = t; t = y; genuinely cycles through the two assignments. *)
  let cyclic =
    parse_m
      "module m(a, y); input a; output y; reg t; reg y;\n\
       always @(*) begin y = t; t = y; end\n\
       endmodule"
  in
  Alcotest.(check bool) "mutual comb assignments flagged" true
    (List.mem "comb-loop" (rules (analyze cyclic)))

let test_analysis_uninit_reg () =
  (* A clocked register with no reset path, no initializer: powers up x. *)
  let m =
    parse_m
      "module m(c, q); input c; output q; reg q;\n\
       always @(posedge c) q <= ~q;\n\
       endmodule"
  in
  Alcotest.(check bool) "no reset flagged" true
    (List.mem "uninit-reg" (rules (analyze m)));
  (* Near misses: a reset branch, a declaration initializer, or an initial
     block each count as initialization. *)
  let with_reset =
    parse_m
      "module m(c, r, q); input c, r; output q; reg q;\n\
       always @(posedge c or posedge r)\n\
       if (r) q <= 0; else q <= ~q;\n\
       endmodule"
  in
  Alcotest.(check bool) "reset branch clean" false
    (List.mem "uninit-reg" (rules (analyze with_reset)));
  let with_decl_init =
    parse_m
      "module m(c, q); input c; output q; reg q = 0;\n\
       always @(posedge c) q <= ~q;\n\
       endmodule"
  in
  Alcotest.(check bool) "decl init clean" false
    (List.mem "uninit-reg" (rules (analyze with_decl_init)));
  let with_initial =
    parse_m
      "module m(c, q); input c; output q; reg q;\n\
       initial q = 0;\n\
       always @(posedge c) q <= ~q;\n\
       endmodule"
  in
  Alcotest.(check bool) "initial block clean" false
    (List.mem "uninit-reg" (rules (analyze with_initial)))

let test_analysis_never_assigned () =
  let m =
    parse_m
      "module m(y); output y; reg r; wire y;\n\
       assign y = r;\n\
       endmodule"
  in
  Alcotest.(check bool) "never-assigned reg flagged" true
    (List.exists
       (fun (f : Verilog.Lint.finding) ->
         f.rule = "uninit-reg"
         &&
         try
           ignore (Str.search_forward (Str.regexp_string "never assigned") f.message 0);
           true
         with Not_found -> false)
       (analyze m))

let test_analysis_width_truncation () =
  let m =
    parse_m
      "module m(a, y); input [7:0] a; output y; wire [3:0] n; wire y;\n\
       assign n = a;\n\
       assign y = n[0];\n\
       endmodule"
  in
  Alcotest.(check bool) "8 into 4 flagged" true
    (List.mem "width-truncation" (rules (analyze m)));
  (* Near misses: matching widths, and the ubiquitous q <= q + 1 idiom
     (integer literals are context-flexible). *)
  let same =
    parse_m
      "module m(a, y); input [3:0] a; output y; wire [3:0] n; wire y;\n\
       assign n = a;\n\
       assign y = n[0];\n\
       endmodule"
  in
  Alcotest.(check bool) "same width clean" false
    (List.mem "width-truncation" (rules (analyze same)));
  let incr =
    parse_m
      "module m(c, q); input c; output [3:0] q; reg [3:0] q;\n\
       initial q = 0;\n\
       always @(posedge c) q <= q + 1;\n\
       endmodule"
  in
  Alcotest.(check bool) "q <= q + 1 clean" false
    (List.mem "width-truncation" (rules (analyze incr)))

let test_analysis_literal_overflow () =
  let m =
    parse_m
      "module m(y); output y; reg [3:0] n; wire y;\n\
       initial n = 300;\n\
       assign y = n[0];\n\
       endmodule"
  in
  Alcotest.(check bool) "300 into 4 bits flagged" true
    (List.mem "width-truncation" (rules (analyze m)));
  let fits =
    parse_m
      "module m(y); output y; reg [3:0] n; wire y;\n\
       initial n = 7;\n\
       assign y = n[0];\n\
       endmodule"
  in
  Alcotest.(check bool) "7 into 4 bits clean" false
    (List.mem "width-truncation" (rules (analyze fits)))

(* Width findings read the simulator's widths: the two corner designs
   of fixtures/analysis_env.v that elaborate, checked against the widths
   the elaborator records. A rangeless reg redeclaration keeps the
   port's 8 bits; 3'd7 + 3'd1 wraps to 0, so [P:0] is 1 bit. *)
let test_analysis_width_follows_simulator () =
  let case ~top src ~net ~sim_width ~truncations =
    let m = parse_m src in
    let elab = Sim.Elaborate.elaborate [ m ] ~top in
    (match Sim.Runtime.find_var elab.Sim.Elaborate.st (top ^ "." ^ net) with
    | Some v ->
        Alcotest.(check int) (net ^ " simulated width") sim_width
          v.Sim.Runtime.v_width
    | None -> Alcotest.fail (net ^ " not elaborated"));
    let found =
      List.filter
        (fun (f : Verilog.Lint.finding) ->
          f.rule = "width-truncation"
          && String.ends_with ~suffix:(Printf.sprintf "%d-bit %s" sim_width net)
               f.message)
        (analyze ~checks:[ Verilog.Analysis.Width ] m)
    in
    Alcotest.(check int) (net ^ " truncations") truncations (List.length found);
    Alcotest.(check int) (net ^ " width findings") truncations
      (List.length (analyze ~checks:[ Verilog.Analysis.Width ] m))
  in
  case ~top:"redecl"
    "module redecl(clk, d, q2); input clk; input [7:0] d;\n\
     output [7:0] q2; reg q2;\n\
     always @(posedge clk) q2 <= d;\n\
     endmodule"
    ~net:"q2" ~sim_width:8 ~truncations:0;
  case ~top:"wrap"
    "module wrap(clk, w); input clk; parameter P = 3'd7 + 3'd1;\n\
     output [P:0] w; reg [P:0] w;\n\
     always @(posedge clk) w <= 8'hff;\n\
     endmodule"
    ~net:"w" ~sim_width:1 ~truncations:1

let test_analysis_port_width () =
  let d =
    parse
      "module sub(i, o); input [3:0] i; output [3:0] o; assign o = i; endmodule\n\
       module top(a, y); input [7:0] a; output [3:0] y;\n\
       sub u (.i(a), .o(y));\n\
       endmodule"
  in
  let top = List.find (fun m -> m.Verilog.Ast.mod_id = "top") d in
  Alcotest.(check bool) "8-bit actual on 4-bit port flagged" true
    (List.mem "port-width" (rules (analyze ~design:d top)));
  let d2 =
    parse
      "module sub(i, o); input [3:0] i; output [3:0] o; assign o = i; endmodule\n\
       module top(a, y); input [3:0] a; output [3:0] y;\n\
       sub u (.i(a), .o(y));\n\
       endmodule"
  in
  let top2 = List.find (fun m -> m.Verilog.Ast.mod_id = "top") d2 in
  Alcotest.(check bool) "matching ports clean" false
    (List.mem "port-width" (rules (analyze ~design:d2 top2)))

let test_analysis_const_cond () =
  let m =
    parse_m
      "module m(a, y); input a; output y; reg y;\n\
       always @(*) begin if (1'b1) y = a; else y = 0; end\n\
       endmodule"
  in
  Alcotest.(check bool) "constant condition flagged" true
    (List.mem "constant-condition" (rules (analyze m)));
  let param_cond =
    parse_m
      "module m(a, y); input a; output y; reg y;\n\
       parameter MODE = 1;\n\
       always @(*) begin if (MODE > 0) y = a; else y = 0; end\n\
       endmodule"
  in
  Alcotest.(check bool) "parameter condition flagged" true
    (List.mem "constant-condition" (rules (analyze param_cond)));
  (* Near miss: a genuine data-dependent condition. *)
  let live =
    parse_m
      "module m(a, b, y); input a, b; output y; reg y;\n\
       always @(*) begin if (a) y = b; else y = 0; end\n\
       endmodule"
  in
  Alcotest.(check bool) "live condition clean" false
    (List.mem "constant-condition" (rules (analyze live)))

let test_analysis_screen () =
  let looping =
    parse_m
      "module m(y); output y; wire a, b; wire y;\n\
       assign a = b;\n\
       assign b = a;\n\
       assign y = a;\n\
       endmodule"
  in
  (match Verilog.Analysis.screen ~checks:[ Verilog.Analysis.Comb_loop ] looping with
  | Some msg ->
      Alcotest.(check bool) "message mentions the loop" true
        (try
           ignore (Str.search_forward (Str.regexp_string "comb-loop") msg 0);
           true
         with Not_found -> false)
  | None -> Alcotest.fail "screen missed the loop");
  let clean =
    parse_m "module m(a, y); input a; output y; wire y; assign y = a; endmodule"
  in
  Alcotest.(check bool) "clean module passes" true
    (Verilog.Analysis.screen ~checks:Verilog.Analysis.all_checks clean = None)

(* --- Screener in the repair loop ------------------------------------------ *)

let screener_problem () =
  let golden =
    "module m(a, y); input a; output y; reg y; reg t;\n\
     always @(*) begin t = a; y = t; end\n\
     endmodule"
  in
  (* The injected defect rewires t to read y: a zero-delay combinational
     loop t -> y -> t that static analysis can refute without simulating. *)
  let faulty =
    "module m(a, y); input a; output y; reg y; reg t;\n\
     always @(*) begin t = y; y = t; end\n\
     endmodule"
  in
  let testbench =
    "module m_tb; reg clk; reg a; wire y;\n\
     m dut (.a(a), .y(y));\n\
     initial clk = 0;\n\
     always #5 clk = ~clk;\n\
     initial begin a = 0; #10 a = 1; #10 a = 0; #5 $finish; end\n\
     endmodule"
  in
  Cirfix.Problem.make ~name:"screener-demo" ~faulty ~golden ~testbench
    ~target:"m"
    { Sim.Simulate.top = "m_tb"; clock = "m_tb.clk"; dut_path = "m_tb.dut" }

let test_evaluate_rejects_static () =
  let problem = screener_problem () in
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  let faulty = Cirfix.Problem.target_module problem in
  let o = Cirfix.Evaluate.eval_module ev faulty in
  (match o.status with
  | Cirfix.Evaluate.Rejected_static _ -> ()
  | _ -> Alcotest.fail "expected Rejected_static");
  Alcotest.(check (float 1e-9)) "fitness zero" 0.0 o.fitness;
  let count = Cirfix.Evaluate.get ev.table in
  Alcotest.(check int) "no simulation spent" 0 (count Probes);
  Alcotest.(check int) "one reject" 1 (count Static_rejects);
  (* Memoized: a second evaluation hits the cache, not the counter. *)
  ignore (Cirfix.Evaluate.eval_module ev faulty);
  Alcotest.(check int) "still one reject" 1 (count Static_rejects)

let test_gp_screener_end_to_end () =
  let problem = screener_problem () in
  let cfg =
    {
      Cirfix.Config.default with
      seed = 1;
      pop_size = 10;
      max_generations = 2;
      max_probes = 50;
    }
  in
  let r = Cirfix.Gp.repair cfg problem in
  Alcotest.(check bool) "screener fired" true
    ((Cirfix.Evaluate.get r.counters Static_rejects) > 0);
  (* An empty check list recovers the unscreened behavior: nothing is
     statically rejected. *)
  let off = Cirfix.Gp.repair { cfg with screen_checks = [] } problem in
  Alcotest.(check int) "screening off" 0
    (Cirfix.Evaluate.get off.counters Static_rejects)

(* --- Coverage -------------------------------------------------------------- *)

let coverage_of src ~top =
  let d = parse src in
  let elab = Sim.Elaborate.elaborate d ~top in
  Sim.Runtime.enable_coverage elab.st;
  ignore (Sim.Engine.run elab);
  Sim.Coverage.report elab.st d

let test_coverage_full () =
  let reports =
    coverage_of
      "module top; reg a; initial begin a = 0; a = 1; #1 $finish; end endmodule"
      ~top:"top"
  in
  let r = List.hd reports in
  Alcotest.(check int) "all covered" r.mr_total r.mr_covered;
  Alcotest.(check (float 1e-9)) "ratio 1" 1.0 (Sim.Coverage.ratio r)

let test_coverage_dead_branch () =
  let reports =
    coverage_of
      "module top; reg a; reg [1:0] r;\n\
       initial begin a = 0;\n\
       if (a) r = 1; else r = 2;\n\
       #1 $finish; end\n\
       endmodule"
      ~top:"top"
  in
  let r = List.hd reports in
  Alcotest.(check bool) "dead then-branch" true (r.mr_covered < r.mr_total);
  let dead =
    List.filter (fun (sr : Sim.Coverage.stmt_report) -> sr.sr_count = 0) r.mr_stmts
  in
  Alcotest.(check int) "exactly one uncovered" 1 (List.length dead)

let test_coverage_counts () =
  let reports =
    coverage_of
      "module top; integer i; reg [7:0] s;\n\
       initial begin s = 0;\n\
       for (i = 0; i < 5; i = i + 1) s = s + 1;\n\
       #1 $finish; end\n\
       endmodule"
      ~top:"top"
  in
  let r = List.hd reports in
  let body_count =
    List.fold_left
      (fun acc (sr : Sim.Coverage.stmt_report) -> max acc sr.sr_count)
      0 r.mr_stmts
  in
  (* The loop body runs 5 times. *)
  Alcotest.(check bool) "loop body count >= 5" true (body_count >= 5)

let test_coverage_disabled_is_free () =
  let d = parse "module top; reg a; initial begin a = 1; #1 $finish; end endmodule" in
  let elab = Sim.Elaborate.elaborate d ~top:"top" in
  ignore (Sim.Engine.run elab);
  let r = List.hd (Sim.Coverage.report elab.st d) in
  (* Without enable_coverage every count reads as zero. *)
  Alcotest.(check int) "no counts" 0 r.mr_covered

(* --- Wave renderer ------------------------------------------------------------ *)

let sample t values : Sim.Recorder.sample =
  { t; values = List.map (fun (n, s) -> (n, Logic4.Packed.of_vec (Logic4.Vec.of_string s))) values }

let test_wave_levels () =
  let tr = [ sample 5 [ ("q", "0") ]; sample 15 [ ("q", "1") ]; sample 25 [ ("q", "x") ] ] in
  let out = Sim.Wave.render tr in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "two rows + blank" 3 (List.length lines);
  let qline = List.nth lines 1 in
  Alcotest.(check bool) "starts with name" true
    (String.length qline > 4 && String.sub qline 0 1 = "q");
  Alcotest.(check bool) "level chars present" true
    (String.contains qline '_' && String.contains qline '-'
   && String.contains qline 'x')

let test_wave_vector_changes () =
  let tr =
    [
      sample 5 [ ("v", "0001") ];
      sample 15 [ ("v", "0001") ];
      sample 25 [ ("v", "0010") ];
    ]
  in
  let out = Sim.Wave.render tr in
  (* value printed at first sample and at the change, not in between *)
  Alcotest.(check bool) "has 1" true
    (try ignore (Str.search_forward (Str.regexp "1") out 0); true
     with Not_found -> false);
  Alcotest.(check bool) "change marker" true
    (try ignore (Str.search_forward (Str.regexp_string "|2") out 0); true
     with Not_found -> false)

let test_wave_empty () =
  Alcotest.(check string) "empty" "(empty trace)\n" (Sim.Wave.render [])

let test_wave_diff () =
  let e = [ sample 5 [ ("q", "1") ]; sample 15 [ ("q", "0") ] ] in
  let a = [ sample 5 [ ("q", "1") ]; sample 15 [ ("q", "1") ] ] in
  let out = Sim.Wave.render_diff ~expected:e ~actual:a in
  Alcotest.(check bool) "reports mismatch time" true
    (try ignore (Str.search_forward (Str.regexp_string "mismatching sample times: 15") out 0); true
     with Not_found -> false);
  let same = Sim.Wave.render_diff ~expected:e ~actual:e in
  Alcotest.(check bool) "agreement reported" true
    (try ignore (Str.search_forward (Str.regexp_string "agree at every") same 0); true
     with Not_found -> false)

(* --- VCD structure -------------------------------------------------------------- *)

let test_vcd_codes () =
  (* identifier codes are unique over a large range *)
  let codes = List.init 500 Sim.Vcd.code_of_int in
  Alcotest.(check int) "unique codes" 500
    (List.length (List.sort_uniq compare codes))

let test_vcd_scalar_and_vector_syntax () =
  let d =
    parse
      "module top; reg a; reg [3:0] v;\n\
       initial begin a = 0; v = 4'd9; #5 a = 1; #1 $finish; end\n\
       endmodule"
  in
  let elab = Sim.Elaborate.elaborate d ~top:"top" in
  let vcd = Sim.Vcd.attach elab.st in
  ignore (Sim.Engine.run elab);
  let text = Sim.Vcd.to_string vcd in
  let has needle =
    try ignore (Str.search_forward (Str.regexp_string needle) text 0); true
    with Not_found -> false
  in
  Alcotest.(check bool) "vector uses b prefix" true (has "b1001 ");
  Alcotest.(check bool) "var widths declared" true (has "$var reg 4");
  Alcotest.(check bool) "timestamp 5" true (has "#5")

let () =
  Alcotest.run "tooling"
    [
      ( "lint",
        [
          Alcotest.test_case "benchmark designs clean" `Quick test_lint_clean_design;
          Alcotest.test_case "incomplete sensitivity" `Quick
            test_lint_incomplete_sensitivity;
          Alcotest.test_case "star complete" `Quick test_lint_star_is_complete;
          Alcotest.test_case "latch inference" `Quick test_lint_latch_inference;
          Alcotest.test_case "case default" `Quick test_lint_case_default_completes;
          Alcotest.test_case "assignment styles" `Quick test_lint_assignment_styles;
          Alcotest.test_case "mixed sensitivity" `Quick test_lint_mixed_sensitivity;
          Alcotest.test_case "free running" `Quick test_lint_free_running_always;
          Alcotest.test_case "multiple drivers" `Quick test_lint_multiple_drivers;
          Alcotest.test_case "same-kind multiple drivers" `Quick
            test_lint_same_kind_multiple_drivers;
          Alcotest.test_case "finding carries module" `Quick
            test_lint_finding_carries_module;
          Alcotest.test_case "parameters exempt" `Quick
            test_lint_parameters_not_flagged;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "comb loop: assigns" `Quick
            test_analysis_comb_loop_assigns;
          Alcotest.test_case "comb loop: always @(*)" `Quick
            test_analysis_comb_loop_always_star;
          Alcotest.test_case "comb loop: clocked exempt" `Quick
            test_analysis_comb_loop_clocked_exempt;
          Alcotest.test_case "comb loop: ordering" `Quick
            test_analysis_comb_loop_ordering;
          Alcotest.test_case "uninit reg" `Quick test_analysis_uninit_reg;
          Alcotest.test_case "never assigned" `Quick test_analysis_never_assigned;
          Alcotest.test_case "width truncation" `Quick
            test_analysis_width_truncation;
          Alcotest.test_case "literal overflow" `Quick
            test_analysis_literal_overflow;
          Alcotest.test_case "port width" `Quick test_analysis_port_width;
          Alcotest.test_case "width follows simulator" `Quick
            test_analysis_width_follows_simulator;
          Alcotest.test_case "constant condition" `Quick test_analysis_const_cond;
          Alcotest.test_case "screen" `Quick test_analysis_screen;
          Alcotest.test_case "evaluate rejects static" `Quick
            test_evaluate_rejects_static;
          Alcotest.test_case "gp screener end to end" `Quick
            test_gp_screener_end_to_end;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "full" `Quick test_coverage_full;
          Alcotest.test_case "dead branch" `Quick test_coverage_dead_branch;
          Alcotest.test_case "counts" `Quick test_coverage_counts;
          Alcotest.test_case "disabled" `Quick test_coverage_disabled_is_free;
        ] );
      ( "wave",
        [
          Alcotest.test_case "levels" `Quick test_wave_levels;
          Alcotest.test_case "vector changes" `Quick test_wave_vector_changes;
          Alcotest.test_case "empty" `Quick test_wave_empty;
          Alcotest.test_case "diff" `Quick test_wave_diff;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "codes unique" `Quick test_vcd_codes;
          Alcotest.test_case "syntax" `Quick test_vcd_scalar_and_vector_syntax;
        ] );
    ]
