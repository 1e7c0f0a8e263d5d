(* Simulator semantics tests: scheduler regions, blocking vs non-blocking,
   delta cycles, edges, delays, events, elaboration, system tasks, and the
   recorder. Each test elaborates a small Verilog design and checks the
   values or traces it produces. *)

open Logic4

let run ?(max_steps = 100_000) ?(max_time = 100_000) src =
  let design =
    match Verilog.Parser.parse_design_result src with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let elab = Sim.Elaborate.elaborate ~max_steps ~max_time design ~top:"top" in
  let outcome = Sim.Engine.run elab in
  (elab, outcome)

(* Value of [top.name] after the run. *)
let value elab name =
  match Sim.Runtime.find_var elab.Sim.Elaborate.st ("top." ^ name) with
  | Some v -> Packed.to_vec v.Sim.Runtime.v_value
  | None -> Alcotest.failf "no variable top.%s" name

let check_val elab name expected =
  Alcotest.(check string) name expected (Vec.to_string (value elab name))

let check_finished outcome =
  Alcotest.(check bool) "ran to $finish" true (outcome = Sim.Engine.Finished)

(* --- Basic processes ----------------------------------------------------- *)

let test_initial_assign () =
  let elab, outcome = run "module top; reg [3:0] r; initial r = 4'b1010; initial #1 $finish; endmodule" in
  check_finished outcome;
  check_val elab "r" "1010"

let test_uninitialized_is_x () =
  let elab, _ = run "module top; reg [2:0] r; wire w; initial #1 $finish; endmodule" in
  check_val elab "r" "xxx";
  check_val elab "w" "x"

let test_blocking_order () =
  (* Blocking assignments are visible to subsequent statements. *)
  let elab, _ =
    run
      "module top; reg [7:0] a, b;\n\
       initial begin a = 8'd5; b = a + 8'd1; #1 $finish; end endmodule"
  in
  check_val elab "b" "00000110"

let test_nonblocking_defers () =
  (* An NBA is not visible until the NBA region of the same time step. *)
  let elab, _ =
    run
      "module top; reg [7:0] a, b, c;\n\
       initial begin a = 8'd5; a <= 8'd9; b = a; #1 c = a; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "b" "00000101";
  (* after the time step, the NBA value has landed *)
  check_val elab "c" "00001001"

let test_nba_swap () =
  (* The classic register swap works only with non-blocking assignments. *)
  let elab, _ =
    run
      "module top; reg [3:0] x, y; reg clk;\n\
       initial begin clk = 0; x = 4'd1; y = 4'd2; end\n\
       always #5 clk = !clk;\n\
       always @(posedge clk) begin x <= y; y <= x; end\n\
       initial #8 $finish;\n\
       endmodule"
  in
  check_val elab "x" "0010";
  check_val elab "y" "0001"

let test_intra_assignment_delay () =
  (* a = #3 rhs evaluates rhs now, stores after the delay. *)
  let elab, _ =
    run
      "module top; reg [3:0] a, b;\n\
       initial begin a = 4'd1; b = #3 a; a = 4'd9; end\n\
       initial #10 $finish;\n\
       endmodule"
  in
  check_val elab "b" "0001"

let test_delayed_nba () =
  let elab, _ =
    run
      "module top; reg [3:0] a, b;\n\
       initial begin a = 4'd0; a <= #4 4'd7; b = a; #6 b = a; end\n\
       initial #10 $finish;\n\
       endmodule"
  in
  check_val elab "b" "0111"

(* --- Edges and event controls --------------------------------------------- *)

let test_posedge_negedge () =
  let elab, _ =
    run
      "module top; reg clk; reg [3:0] p, n;\n\
       initial begin clk = 0; p = 0; n = 0; end\n\
       always #5 clk = !clk;\n\
       always @(posedge clk) p <= p + 1;\n\
       always @(negedge clk) n <= n + 1;\n\
       initial #43 $finish;\n\
       endmodule"
  in
  (* edges: pos at 5,15,25,35 (4), neg at 10,20,30,40 (4) *)
  check_val elab "p" "0100";
  check_val elab "n" "0100"

let test_x_to_one_is_posedge () =
  (* IEEE: x -> 1 counts as a rising edge. *)
  let elab, _ =
    run
      "module top; reg clk; reg hit;\n\
       initial hit = 0;\n\
       always @(posedge clk) hit = 1;\n\
       initial #2 clk = 1;\n\
       initial #5 $finish;\n\
       endmodule"
  in
  check_val elab "hit" "1"

let test_multi_signal_sensitivity () =
  let elab, _ =
    run
      "module top; reg a, b; reg [3:0] count;\n\
       initial begin a = 0; b = 0; count = 0; end\n\
       always @(a or b) count = count + 1;\n\
       initial begin #1 a = 1; #1 b = 1; #1 a = 0; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "count" "0011"

let test_star_sensitivity () =
  (* The star form re-evaluates whenever any read variable changes. *)
  let elab, _ =
    run
      "module top; reg [3:0] a, b; reg [3:0] sum;\n\
       initial begin a = 1; b = 2; end\n\
       always @(*) sum = a + b;\n\
       initial begin #2 a = 5; #2 b = 7; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "sum" "1100"

let test_named_events () =
  let elab, _ =
    run
      "module top; event go; reg fired;\n\
       initial fired = 0;\n\
       initial begin @(go); fired = 1; end\n\
       initial begin #3 -> go; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "fired" "1"

let test_wait_statement () =
  let elab, _ =
    run
      "module top; reg cond; reg [3:0] r;\n\
       initial begin cond = 0; r = 0; end\n\
       initial begin wait (cond) r = 4'd9; end\n\
       initial begin #7 cond = 1; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "r" "1001"

(* --- Control flow ---------------------------------------------------------- *)

let test_if_x_takes_else () =
  (* An x condition executes the else branch (IEEE if semantics). *)
  let elab, _ =
    run
      "module top; reg u; reg [1:0] r;\n\
       initial begin if (u) r = 2'd1; else r = 2'd2; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "r" "10"

let test_case_kinds () =
  let elab, _ =
    run
      "module top; reg [1:0] sel; reg [3:0] plain, cz;\n\
       initial begin\n\
       sel = 2'b10;\n\
       case (sel) 2'b01: plain = 1; 2'b10: plain = 2; default: plain = 15; endcase\n\
       casez (sel) 2'b0?: cz = 1; 2'b1?: cz = 2; default: cz = 15; endcase\n\
       #1 $finish; end\n\
       endmodule"
  in
  check_val elab "plain" "0010";
  check_val elab "cz" "0010"

let test_case_default_and_x () =
  let elab, _ =
    run
      "module top; reg [1:0] sel; reg [3:0] r;\n\
       initial begin\n\
       case (sel) 2'b00: r = 1; default: r = 14; endcase\n\
       #1 $finish; end\n\
       endmodule"
  in
  (* sel is xx: no arm matches under plain case -> default *)
  check_val elab "r" "1110"

let test_for_loop_and_integer () =
  let elab, _ =
    run
      "module top; integer i; reg [7:0] sum;\n\
       initial begin sum = 0;\n\
       for (i = 0; i < 5; i = i + 1) sum = sum + i;\n\
       #1 $finish; end\n\
       endmodule"
  in
  check_val elab "sum" "00001010"

let test_while_repeat () =
  let elab, _ =
    run
      "module top; reg [7:0] w, r;\n\
       initial begin w = 0; r = 0;\n\
       while (w < 8'd5) w = w + 1;\n\
       repeat (4) r = r + 2;\n\
       #1 $finish; end\n\
       endmodule"
  in
  check_val elab "w" "00000101";
  check_val elab "r" "00001000"

let test_forever_with_budget () =
  (* A zero-delay forever loop must be stopped by the statement budget. *)
  let _, outcome =
    run ~max_steps:2000
      "module top; reg r; initial r = 0; initial forever r = !r; endmodule"
  in
  Alcotest.(check bool) "budget tripped" true
    (match outcome with Sim.Engine.Budget_exceeded _ -> true | _ -> false)

(* --- Structural ------------------------------------------------------------ *)

let test_continuous_assign_tracks () =
  let elab, _ =
    run
      "module top; reg [3:0] a; wire [3:0] double;\n\
       assign double = a + a;\n\
       initial begin a = 4'd3; #1 a = 4'd5; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "double" "1010"

let test_wire_init_declarator () =
  let elab, _ =
    run
      "module top; reg [3:0] a; wire [3:0] w = a + 4'd1;\n\
       initial begin a = 4'd3; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "w" "0100"

let test_hierarchy_and_ports () =
  let elab, _ =
    run
      "module inv(i, o); input i; output o; assign o = !i; endmodule\n\
       module top; reg x; wire y;\n\
       inv u (.i(x), .o(y));\n\
       initial begin x = 0; #1 x = 1; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "y" "0";
  (* hierarchical variable exists *)
  Alcotest.(check bool) "inner var" true
    (Sim.Runtime.find_var elab.Sim.Elaborate.st "top.u.i" <> None)

let test_parameter_override () =
  let elab, _ =
    run
      "module c(o); output [7:0] o; parameter W = 3; assign o = W + 1; endmodule\n\
       module top; wire [7:0] a, b;\n\
       c u0 (.o(a));\n\
       c #(.W(9)) u1 (.o(b));\n\
       initial #1 $finish;\n\
       endmodule"
  in
  check_val elab "a" "00000100";
  check_val elab "b" "00001010"

let test_positional_ports () =
  let elab, _ =
    run
      "module pass(i, o); input [3:0] i; output [3:0] o; assign o = i; endmodule\n\
       module top; reg [3:0] x; wire [3:0] y;\n\
       pass u (x, y);\n\
       initial begin x = 4'hC; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "y" "1100"

let test_memory_array () =
  let elab, _ =
    run
      "module top; reg [7:0] mem [0:3]; reg [7:0] out; integer i;\n\
       initial begin\n\
       for (i = 0; i < 4; i = i + 1) mem[i] = i * 3;\n\
       out = mem[2];\n\
       #1 $finish; end\n\
       endmodule"
  in
  check_val elab "out" "00000110"

let test_part_select_rw () =
  let elab, _ =
    run
      "module top; reg [7:0] r; reg [3:0] hi;\n\
       initial begin r = 8'h00; r[7:4] = 4'hA; r[0] = 1'b1; hi = r[7:4];\n\
       #1 $finish; end\n\
       endmodule"
  in
  check_val elab "r" "10100001";
  check_val elab "hi" "1010"

let test_descending_range () =
  (* [0:7] declarations index from the other end. *)
  let elab, _ =
    run
      "module top; reg [0:7] r;\n\
       initial begin r = 8'h01; r[0] = 1'b1; #1 $finish; end\n\
       endmodule"
  in
  (* r[0] is the MSB under [0:7] *)
  check_val elab "r" "10000001"

let test_concat_lvalue () =
  let elab, _ =
    run
      "module top; reg [3:0] a; reg [3:0] b;\n\
       initial begin {a, b} = 8'b1010_0110; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "a" "1010";
  check_val elab "b" "0110"

(* --- More semantics edge cases ---------------------------------------------- *)

let test_casez_wildcard_in_subject () =
  (* casez: z in the SUBJECT is also a wildcard. *)
  let elab, _ =
    run
      "module top; reg [1:0] sel; reg [3:0] r;\n\
       initial begin sel = 2'b1z;\n\
       casez (sel) 2'b10: r = 3; default: r = 9; endcase\n\
       #1 $finish; end\n\
       endmodule"
  in
  check_val elab "r" "0011"

let test_repeat_zero_and_x () =
  let elab, _ =
    run
      "module top; reg [3:0] r; reg u;\n\
       initial begin r = 0;\n\
       repeat (0) r = r + 1;\n\
       repeat (u) r = r + 1;\n\
       #1 $finish; end\n\
       endmodule"
  in
  check_val elab "r" "0000"

let test_while_x_condition_skips () =
  let elab, _ =
    run
      "module top; reg u; reg [3:0] r;\n\
       initial begin r = 5;\n\
       while (u) r = r + 1;\n\
       #1 $finish; end\n\
       endmodule"
  in
  check_val elab "r" "0101"

let test_wait_already_true () =
  let elab, _ =
    run
      "module top; reg c; reg r;\n\
       initial begin c = 1; r = 0; wait (c) r = 1; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "r" "1"

let test_time_function () =
  let elab, _ =
    run
      "module top; reg [15:0] t1, t2;\n\
       initial begin t1 = $time; #42 t2 = $time; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "t1" "0000000000000000";
  Alcotest.(check (option int)) "t2" (Some 42) (Vec.to_int (value elab "t2"))

let test_two_instances_same_module () =
  let elab, _ =
    run
      "module inv(i, o); input i; output o; assign o = !i; endmodule\n\
       module top; reg a; wire b, c;\n\
       inv u0 (.i(a), .o(b));\n\
       inv u1 (.i(b), .o(c));\n\
       initial begin a = 1; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "b" "0";
  check_val elab "c" "1"

let test_ternary_x_condition_merges () =
  (* x ? a : b merges bitwise: agreeing bits survive, others become x. *)
  let elab, _ =
    run
      "module top; reg u; reg [3:0] r;\n\
       initial begin r = u ? 4'b1010 : 4'b1001; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "r" "10xx"

let test_reduction_in_condition () =
  let elab, _ =
    run
      "module top; reg [3:0] v; reg any, all;\n\
       initial begin v = 4'b0100; any = |v; all = &v; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "any" "1";
  check_val elab "all" "0"

let test_shift_by_variable () =
  let elab, _ =
    run
      "module top; reg [7:0] v; reg [2:0] k;\n\
       initial begin k = 3; v = 8'd1 << k; #1 $finish; end\n\
       endmodule"
  in
  Alcotest.(check (option int)) "1<<3" (Some 8) (Vec.to_int (value elab "v"))

let test_named_event_multiple_waiters () =
  let elab, _ =
    run
      "module top; event go; reg [1:0] a, b;\n\
       initial begin a = 0; b = 0; end\n\
       initial begin @(go); a = 1; end\n\
       initial begin @(go); b = 2; end\n\
       initial begin #5 -> go; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "a" "01";
  check_val elab "b" "10"

let test_trigger_before_wait_is_lost () =
  (* Named events have no memory: a trigger before the @ is lost. *)
  let elab, _ =
    run
      "module top; event go; reg hit;\n\
       initial hit = 0;\n\
       initial begin -> go; end\n\
       initial begin #2 @(go); hit = 1; end\n\
       initial #10 $finish;\n\
       endmodule"
  in
  check_val elab "hit" "0"

let test_zero_delay_control () =
  (* #0 defers to later in the same time step: the write below lands
     before the read resumes. *)
  let elab, _ =
    run
      "module top; reg [3:0] a, b;\n\
       initial begin #0; b = a; #1 $finish; end\n\
       initial a = 4'd7;\n\
       endmodule"
  in
  check_val elab "b" "0111"

let test_display_mod_format () =
  let elab, _ =
    run
      "module top;\n\
       initial begin $display(\"in %m here\"); #1 $finish; end\n\
       endmodule"
  in
  Alcotest.(check string) "module path" "in top here\n"
    (Buffer.contents elab.Sim.Elaborate.st.display_log)

let test_unconnected_output_port () =
  let elab, _ =
    run
      "module leaf(i, o, o2); input i; output o, o2; assign o = i; assign o2 = !i; endmodule\n\
       module top; reg a; wire b;\n\
       leaf u (.i(a), .o(b), .o2());\n\
       initial begin a = 1; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "b" "1"

let test_module_arith_width_context () =
  (* counter_out + 1 at width 4 wraps to 0 on assignment (the motivating
     example's increment). *)
  let elab, _ =
    run
      "module top; reg [3:0] c;\n\
       initial begin c = 4'b1111; c = c + 1; #1 $finish; end\n\
       endmodule"
  in
  check_val elab "c" "0000"

(* --- Elaboration errors ----------------------------------------------------- *)

let expect_elab_error src =
  let design =
    match Verilog.Parser.parse_design_result src with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  match
    Sim.Simulate.run design
      { top = "top"; clock = "top.clk"; dut_path = "top.u" }
  with
  | Error (Sim.Simulate.Elab_failure _) -> ()
  | Ok _ -> Alcotest.fail "expected an elaboration failure"

let test_elab_errors () =
  (* continuous assignment to a reg *)
  expect_elab_error
    "module top; reg clk; reg r; assign r = 1; u u(); endmodule";
  (* unknown module *)
  expect_elab_error "module top; reg clk; nosuch u (); endmodule";
  (* unknown port *)
  expect_elab_error
    "module leaf(a); input a; endmodule\n\
     module top; reg clk; leaf u (.b(clk)); endmodule";
  (* undeclared identifier in a port connection *)
  expect_elab_error
    "module leaf(a); input a; always @(a) begin end endmodule\n\
     module top; reg clk; leaf u (.a(ghost)); endmodule"

let test_undeclared_at_runtime () =
  (* Reading an undeclared name on an executed path fails the run. *)
  let design =
    match
      Verilog.Parser.parse_design_result
        "module top; reg clk; reg r; initial r = ghost; endmodule"
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  match
    Sim.Simulate.run design { top = "top"; clock = "top.clk"; dut_path = "top" }
  with
  | Error (Sim.Simulate.Elab_failure _) -> ()
  | Ok _ -> Alcotest.fail "expected failure"

(* --- System tasks and $display -------------------------------------------- *)

let test_display_formats () =
  let elab, _ =
    run
      "module top; reg [7:0] v;\n\
       initial begin v = 8'd42;\n\
       $display(\"d=%d h=%h b=%b t=%0t\", v, v, v, $time);\n\
       $display(\"plain\");\n\
       #1 $finish; end\n\
       endmodule"
  in
  let log = Buffer.contents elab.Sim.Elaborate.st.display_log in
  Alcotest.(check string) "log" "d=42 h=2a b=00101010 t=0\nplain\n" log

let test_monitor () =
  let elab, _ =
    run
      "module top; reg [3:0] v;\n\
       initial $monitor(\"v=%d\", v);\n\
       initial begin v = 1; #5 v = 2; #5 v = 2; #5 v = 3; #1 $finish; end\n\
       endmodule"
  in
  let log = Buffer.contents elab.Sim.Elaborate.st.display_log in
  (* one line per change, none for the redundant write *)
  Alcotest.(check string) "monitor" "v=1\nv=2\nv=3\n" log

let test_time_limit () =
  let _, outcome =
    run ~max_time:50
      "module top; reg clk; initial clk = 0; always #5 clk = !clk; endmodule"
  in
  Alcotest.(check bool) "time limit" true (outcome = Sim.Engine.Time_limit_reached)

let test_quiescent () =
  let _, outcome = run "module top; reg r; initial r = 1; endmodule" in
  Alcotest.(check bool) "quiescent" true (outcome = Sim.Engine.Quiescent)

(* --- Recorder --------------------------------------------------------------- *)

let tb_src =
  "module dut(clk, d, q); input clk; input d; output q; reg q;\n\
   always @(posedge clk) q <= d;\n\
   endmodule\n\
   module top; reg clk, d; wire q;\n\
   dut u (.clk(clk), .d(d), .q(q));\n\
   initial begin clk = 0; d = 0; end\n\
   always #5 clk = !clk;\n\
   initial begin #12 d = 1; #20 d = 0; #10 $finish; end\n\
   endmodule"

let test_recorder_samples () =
  let design =
    match Verilog.Parser.parse_design_result tb_src with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  match
    Sim.Simulate.run design { top = "top"; clock = "top.clk"; dut_path = "top.u" }
  with
  | Error _ -> Alcotest.fail "sim failed"
  | Ok r ->
      (* posedges at 5,15,25,35 -> 4 samples before $finish at 42 *)
      Alcotest.(check int) "sample count" 4 (List.length r.trace);
      let names =
        match r.trace with s :: _ -> List.map fst s.values | [] -> []
      in
      (* only output ports of the DUT are observed *)
      Alcotest.(check (list string)) "signals" [ "q" ] names;
      let at t =
        let s = List.find (fun (s : Sim.Recorder.sample) -> s.t = t) r.trace in
        Vec.to_string (Packed.to_vec (List.assoc "q" s.values))
      in
      (* sampling is in the monitor region, after the NBA update lands *)
      Alcotest.(check string) "q before d rises" "0" (at 5);
      Alcotest.(check string) "q captures d" "1" (at 25)

let test_recorder_csv_roundtrip () =
  let design =
    match Verilog.Parser.parse_design_result tb_src with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  match
    Sim.Simulate.run design { top = "top"; clock = "top.clk"; dut_path = "top.u" }
  with
  | Error _ -> Alcotest.fail "sim failed"
  | Ok r ->
      let csv = Sim.Recorder.to_string r.trace in
      let back = Cirfix.Oracle.to_trace (Cirfix.Oracle.of_csv csv) in
      Alcotest.(check int) "same length" (List.length r.trace) (List.length back);
      List.iter2
        (fun (a : Sim.Recorder.sample) (b : Sim.Recorder.sample) ->
          Alcotest.(check int) "time" a.t b.t;
          List.iter2
            (fun (n1, v1) (n2, v2) ->
              Alcotest.(check string) "name" n1 n2;
              Alcotest.(check bool) "value" true (Packed.equal v1 v2))
            a.values b.values)
        r.trace back

let test_vcd_dump () =
  let design =
    match Verilog.Parser.parse_design_result tb_src with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let elab = Sim.Elaborate.elaborate design ~top:"top" in
  let vcd = Sim.Vcd.attach elab.st in
  ignore (Sim.Engine.run elab);
  let text = Sim.Vcd.to_string vcd in
  let contains needle =
    let re = Str.regexp_string needle in
    try ignore (Str.search_forward re text 0); true with Not_found -> false
  in
  Alcotest.(check bool) "header" true (contains "$enddefinitions $end");
  Alcotest.(check bool) "declares q" true (contains " q $end");
  Alcotest.(check bool) "has time 0" true (contains "#0");
  Alcotest.(check bool) "has later times" true (contains "#15")

let test_recorder_requires_outputs () =
  let design =
    match
      Verilog.Parser.parse_design_result
        "module top; reg clk; initial clk = 0; endmodule"
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  match
    Sim.Simulate.run design
      { top = "top"; clock = "top.clk"; dut_path = "top.nothing" }
  with
  | Error (Sim.Simulate.Elab_failure _) -> ()
  | Ok _ -> Alcotest.fail "expected recorder failure"

let () =
  Alcotest.run "sim"
    [
      ( "processes",
        [
          Alcotest.test_case "initial assign" `Quick test_initial_assign;
          Alcotest.test_case "uninitialized x" `Quick test_uninitialized_is_x;
          Alcotest.test_case "blocking order" `Quick test_blocking_order;
          Alcotest.test_case "nonblocking defers" `Quick test_nonblocking_defers;
          Alcotest.test_case "nba swap" `Quick test_nba_swap;
          Alcotest.test_case "intra-assignment delay" `Quick
            test_intra_assignment_delay;
          Alcotest.test_case "delayed nba" `Quick test_delayed_nba;
        ] );
      ( "events",
        [
          Alcotest.test_case "posedge/negedge" `Quick test_posedge_negedge;
          Alcotest.test_case "x->1 posedge" `Quick test_x_to_one_is_posedge;
          Alcotest.test_case "multi-signal" `Quick test_multi_signal_sensitivity;
          Alcotest.test_case "star" `Quick test_star_sensitivity;
          Alcotest.test_case "named events" `Quick test_named_events;
          Alcotest.test_case "wait" `Quick test_wait_statement;
        ] );
      ( "control-flow",
        [
          Alcotest.test_case "if with x" `Quick test_if_x_takes_else;
          Alcotest.test_case "case kinds" `Quick test_case_kinds;
          Alcotest.test_case "case default" `Quick test_case_default_and_x;
          Alcotest.test_case "for/integer" `Quick test_for_loop_and_integer;
          Alcotest.test_case "while/repeat" `Quick test_while_repeat;
          Alcotest.test_case "forever budget" `Quick test_forever_with_budget;
        ] );
      ( "structure",
        [
          Alcotest.test_case "continuous assign" `Quick
            test_continuous_assign_tracks;
          Alcotest.test_case "wire initializer" `Quick test_wire_init_declarator;
          Alcotest.test_case "hierarchy" `Quick test_hierarchy_and_ports;
          Alcotest.test_case "parameters" `Quick test_parameter_override;
          Alcotest.test_case "positional ports" `Quick test_positional_ports;
          Alcotest.test_case "memory array" `Quick test_memory_array;
          Alcotest.test_case "part select" `Quick test_part_select_rw;
          Alcotest.test_case "descending range" `Quick test_descending_range;
          Alcotest.test_case "concat lvalue" `Quick test_concat_lvalue;
        ] );
      ( "semantics-edges",
        [
          Alcotest.test_case "casez subject wildcard" `Quick
            test_casez_wildcard_in_subject;
          Alcotest.test_case "repeat 0/x" `Quick test_repeat_zero_and_x;
          Alcotest.test_case "while x" `Quick test_while_x_condition_skips;
          Alcotest.test_case "wait already true" `Quick test_wait_already_true;
          Alcotest.test_case "$time" `Quick test_time_function;
          Alcotest.test_case "two instances" `Quick test_two_instances_same_module;
          Alcotest.test_case "ternary x merge" `Quick
            test_ternary_x_condition_merges;
          Alcotest.test_case "reductions" `Quick test_reduction_in_condition;
          Alcotest.test_case "variable shift" `Quick test_shift_by_variable;
          Alcotest.test_case "event fan-out" `Quick
            test_named_event_multiple_waiters;
          Alcotest.test_case "lost trigger" `Quick test_trigger_before_wait_is_lost;
          Alcotest.test_case "#0 control" `Quick test_zero_delay_control;
          Alcotest.test_case "%m format" `Quick test_display_mod_format;
          Alcotest.test_case "unconnected output" `Quick
            test_unconnected_output_port;
          Alcotest.test_case "width context" `Quick test_module_arith_width_context;
        ] );
      ( "errors",
        [
          Alcotest.test_case "elaboration" `Quick test_elab_errors;
          Alcotest.test_case "runtime undeclared" `Quick
            test_undeclared_at_runtime;
        ] );
      ( "tasks",
        [
          Alcotest.test_case "display" `Quick test_display_formats;
          Alcotest.test_case "monitor" `Quick test_monitor;
          Alcotest.test_case "time limit" `Quick test_time_limit;
          Alcotest.test_case "quiescent" `Quick test_quiescent;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "samples" `Quick test_recorder_samples;
          Alcotest.test_case "csv roundtrip" `Quick test_recorder_csv_roundtrip;
          Alcotest.test_case "vcd dump" `Quick test_vcd_dump;
          Alcotest.test_case "needs outputs" `Quick test_recorder_requires_outputs;
        ] );
    ]
