(* Unit tests for the compiled (levelized) simulation backend.

   Three properties are pinned here, below the level the equivalence
   sweep (sim_equiv_run) can see:

   - levelization: in a diamond net, both middle nodes are scheduled
     before the sink, and the pruning stats account for constant and
     dead nodes;
   - fallback triggers: the constructs the compiler rejects
     (multi-driven nets, combinational cycles) raise [Compile.Fallback]
     with a diagnosable reason, and an [Auto] run over such a design
     reports [Used_fallback] rather than silently degrading;
   - coverage of the hard shapes: #delay chains, named events and
     nonblocking commits compile (no fallback) and reproduce the event
     engine's observable behaviour exactly;
   - the store and edge paths around the 61-bit packed boundary, and
     unread bindings whose evaluation raises, agree across backends;
   - the corners of the allocation-free clock edge (NBA log order, index
     capture, delayed and abandoned NBAs, wide stores, x/z logic) agree
     across backends. *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let compile_top src =
  let design = Verilog.Parser.parse_design src in
  let elab = Sim.Elaborate.elaborate design ~top:"top" in
  Sim.Compile.compile elab

let pos order name =
  let rec go i = function
    | [] ->
        Alcotest.failf "%s not in schedule [%s]" name (String.concat "; " order)
    | x :: _ when String.equal x name -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 order

(* Diamond: b and c both feed d.  e is written but never read (dead);
   f is a constant (evaluated only in the time-0 pass). *)
let diamond_src =
  "module top;\n\
  \  reg a;\n\
  \  wire b, c, d, e, f;\n\
  \  assign b = ~a;\n\
  \  assign c = a & a;\n\
  \  assign d = b ^ c;\n\
  \  assign e = b;\n\
  \  assign f = 1'b0;\n\
  \  initial begin\n\
  \    a = 0;\n\
  \    #1 a = 1;\n\
  \    #1 $display(\"%b%b\", d, f);\n\
  \  end\n\
   endmodule\n"

let test_diamond_levelization () =
  let art = compile_top diamond_src in
  let order = Sim.Compile.schedule_order art in
  Alcotest.(check bool) "b before d" true (pos order "b" < pos order "d");
  Alcotest.(check bool) "c before d" true (pos order "c" < pos order "d");
  (* e has no reader: pruned out of the schedule entirely. *)
  Alcotest.(check bool) "dead node e not scheduled" false
    (List.mem "e" order);
  let stats = art.Sim.Compile.a_stats in
  Alcotest.(check bool) "at least one dead node" true
    (stats.Sim.Compile.c_dead >= 1);
  Alcotest.(check bool) "at least one const node" true
    (stats.Sim.Compile.c_const >= 1);
  Alcotest.(check bool) "diamond needs two levels" true
    (stats.Sim.Compile.c_levels >= 2);
  (* The const node f runs at time 0 but drops out of the dynamic
     schedule the cycle loop re-evaluates. *)
  Alcotest.(check bool) "dynamic schedule excludes const nodes" true
    (Array.length art.Sim.Compile.a_dynamic
    < Array.length art.Sim.Compile.a_t0)

let expect_fallback src sub =
  match compile_top src with
  | (_ : Sim.Compile.artifact) ->
      Alcotest.failf "expected Compile.Fallback mentioning %S" sub
  | exception Sim.Compile.Fallback reason ->
      Alcotest.(check bool)
        (Printf.sprintf "reason %S mentions %S" reason sub)
        true (contains reason sub)

let multi_driven_src =
  "module dut(x, w);\n\
  \  input x;\n\
  \  output w;\n\
  \  wire x, w;\n\
  \  assign w = x;\n\
  \  assign w = ~x;\n\
   endmodule\n\
   module top;\n\
  \  reg clk, x;\n\
  \  wire w;\n\
  \  dut u(x, w);\n\
  \  initial begin clk = 0; x = 0; #1 clk = 1; #1 $display(\"%b\", w); end\n\
   endmodule\n"

let test_fallback_multi_driven () = expect_fallback multi_driven_src "multi-driven"

let test_fallback_comb_cycle () =
  expect_fallback
    "module top;\n\
    \  wire p, q;\n\
    \  assign p = ~q;\n\
    \  assign q = ~p;\n\
    \  initial #1 $display(\"%b\", p);\n\
     endmodule\n"
    "combinational cycle"

(* An Auto run over a rejected design must fall back to the event
   engine and say so in [backend_used] — the contract every fallback
   counter upstream (Evaluate, journal, CLI stats) depends on. *)
let test_auto_run_reports_fallback () =
  let design = Verilog.Parser.parse_design multi_driven_src in
  let spec =
    { Sim.Simulate.top = "top"; clock = "top.clk"; dut_path = "top.u" }
  in
  match Sim.Simulate.run ~backend:Sim.Simulate.Auto design spec with
  | Error (Sim.Simulate.Elab_failure e) -> Alcotest.failf "elab failed: %s" e
  | Ok r -> (
      match r.Sim.Simulate.backend_used with
      | Sim.Simulate.Used_fallback reason ->
          Alcotest.(check bool) "fallback reason names the net" true
            (contains reason "multi-driven")
      | other ->
          Alcotest.failf "expected Used_fallback, got %s"
            (Sim.Simulate.backend_used_to_string other))

(* Delay chains, named events and nonblocking commits are exactly the
   shapes the compiler must NOT reject (they run as embedded processes
   inside the artifact), and the two backends must agree observably. *)
let hard_shapes_src =
  "module dut(clk, cnt);\n\
  \  input clk;\n\
  \  output [3:0] cnt;\n\
  \  reg [3:0] cnt;\n\
  \  event tick;\n\
  \  initial cnt = 0;\n\
  \  always @(posedge clk) begin\n\
  \    cnt <= cnt + 1;\n\
  \    -> tick;\n\
  \  end\n\
  \  always @(tick) $display(\"tick %b\", cnt);\n\
   endmodule\n\
   module top;\n\
  \  reg clk;\n\
  \  wire [3:0] cnt;\n\
  \  dut u(clk, cnt);\n\
  \  initial clk = 0;\n\
  \  always #5 clk = ~clk;\n\
  \  initial #48 $finish;\n\
   endmodule\n"

(* Run [src] under the event and then the compiled backend. *)
let run_both src =
  let design = Verilog.Parser.parse_design src in
  let spec =
    { Sim.Simulate.top = "top"; clock = "top.clk"; dut_path = "top.u" }
  in
  let run backend = Sim.Simulate.run ~backend design spec in
  (run Sim.Simulate.Event, run Sim.Simulate.Auto)

(* The compiled run [c] did not fall back and matches the event run [e]
   byte for byte. *)
let check_same_run (e : Sim.Simulate.result) (c : Sim.Simulate.result) =
  (match c.Sim.Simulate.backend_used with
  | Sim.Simulate.Used_compiled -> ()
  | other ->
      Alcotest.failf "design must compile (no fallback), got %s"
        (Sim.Simulate.backend_used_to_string other));
  Alcotest.(check string) "display" e.Sim.Simulate.display
    c.Sim.Simulate.display;
  Alcotest.(check string) "trace"
    (Sim.Recorder.to_string e.Sim.Simulate.trace)
    (Sim.Recorder.to_string c.Sim.Simulate.trace);
  Alcotest.(check bool) "outcome" true
    (e.Sim.Simulate.outcome = c.Sim.Simulate.outcome);
  Alcotest.(check int) "end_time" e.Sim.Simulate.end_time
    c.Sim.Simulate.end_time;
  Alcotest.(check int) "steps" e.Sim.Simulate.steps c.Sim.Simulate.steps

let test_hard_shapes_compile_and_match () =
  match run_both hard_shapes_src with
  | Ok e, Ok c -> check_same_run e c
  | Error (Sim.Simulate.Elab_failure m), _ | _, Error (Sim.Simulate.Elab_failure m)
    ->
      Alcotest.failf "elab failed: %s" m

(* Stores and edges across the 61-bit boundary between two-int bitplanes
   and the bit-array fallback: bit- and part-select NBA writes into a
   64-bit reg, a concatenated lvalue wider than 61 bits, array words, an
   edge on a wide vector's LSB, and a clock driven 0->x->1 and 1->z. *)
let boundary_src =
  "module dut(clk, wide, hi, lo, word, cnt, edges);\n\
  \  input clk;\n\
  \  output [63:0] wide, word;\n\
  \  output [39:0] hi;\n\
  \  output [40:0] lo;\n\
  \  output [7:0] cnt, edges;\n\
  \  reg [63:0] wide, word;\n\
  \  reg [39:0] hi;\n\
  \  reg [40:0] lo;\n\
  \  reg [7:0] cnt, edges;\n\
  \  reg [63:0] mem [0:3];\n\
  \  initial begin\n\
  \    wide = 64'h8000_0000_0000_0001; cnt = 0; edges = 0;\n\
  \    hi = 40'hA5_0F0F_1234; lo = 41'h1_5555_AAAA_33;\n\
  \  end\n\
  \  always @(posedge clk) begin\n\
  \    cnt <= cnt + 1;\n\
  \    wide[cnt[5:0] + 6'd56] <= ~wide[cnt[5:0] + 6'd56];\n\
  \    wide[0] <= cnt[1];\n\
  \    wide[63:58] <= cnt[5:0];\n\
  \    if (cnt[2]) wide[62:60] <= 3'bx1z;\n\
  \    {hi, lo} <= {lo[39:0], hi, cnt[0]};\n\
  \    mem[cnt[1:0]] <= {cnt, wide[55:0]};\n\
  \    word <= mem[cnt[1:0] + 2'd1];\n\
  \  end\n\
  \  always @(posedge wide) edges <= edges + 1;\n\
   endmodule\n\
   module top;\n\
  \  reg clk;\n\
  \  wire [63:0] wide, word;\n\
  \  wire [39:0] hi;\n\
  \  wire [40:0] lo;\n\
  \  wire [7:0] cnt, edges;\n\
  \  dut u(clk, wide, hi, lo, word, cnt, edges);\n\
  \  initial begin\n\
  \    clk = 0; #5 clk = 1'bx; #5 clk = 1; #5 clk = 1'bz; #5 clk = 0;\n\
  \    forever #5 clk = ~clk;\n\
  \  end\n\
  \  always @(posedge clk)\n\
  \    $display(\"%b %b %b %d %d\", wide, {hi, lo}, word, cnt, edges);\n\
  \  initial #400 $finish;\n\
   endmodule\n"

let test_boundary_stores_and_edges () =
  match run_both boundary_src with
  | Ok e, Ok c ->
      check_same_run e c;
      (* The fixture must reach the states it is about. *)
      Alcotest.(check bool) "x/z written near bit 61" true
        (contains e.Sim.Simulate.display "x1z");
      Alcotest.(check bool) "many sampled edges" true
        (List.length e.Sim.Simulate.trace > 30);
      let last = List.nth e.Sim.Simulate.trace (List.length e.Sim.Simulate.trace - 1) in
      Alcotest.(check bool) "edges on the 64-bit reg's LSB" true
        (Logic4.Packed.to_int (List.assoc "edges" last.Sim.Recorder.values) > Some 0)
  | Error (Sim.Simulate.Elab_failure m), _ | _, Error (Sim.Simulate.Elab_failure m)
    ->
      Alcotest.failf "elab failed: %s" m

(* A binding nothing reads is still evaluated by the event engine, so an
   error in it must fail the compiled run the same way. *)
let raising_src assign =
  Printf.sprintf
    "module d(clk, q);\n\
    \  input clk;\n\
    \  output [7:0] q;\n\
    \  reg [7:0] q, x;\n\
    \  wire [7:0] unused;\n\
    \  assign %s;\n\
    \  initial begin q = 0; x = 1; end\n\
    \  always @(posedge clk) q <= q + x;\n\
     endmodule\n\
     module top;\n\
    \  reg clk;\n\
    \  wire [7:0] q;\n\
    \  d u(clk, q);\n\
    \  initial clk = 0;\n\
    \  always #5 clk = ~clk;\n\
    \  initial #50 $finish;\n\
     endmodule\n"
    assign

let test_unread_raising_binding () =
  List.iter
    (fun (assign, msg) ->
      match run_both (raising_src assign) with
      | Error (Sim.Simulate.Elab_failure me), Error (Sim.Simulate.Elab_failure mc)
        ->
          Alcotest.(check string) (assign ^ ": event error") msg me;
          Alcotest.(check string) (assign ^ ": same error") me mc
      | Ok _, _ -> Alcotest.failf "%s: event run should fail" assign
      | _, Ok _ -> Alcotest.failf "%s: compiled run should fail" assign)
    [
      ("unused = x[70000:0]", "part-select too wide (70001 bits)");
      ("unused = {70000{x}}", "replication too wide (560000 bits)");
      ("unused = {70000{1'b1}}", "replication too wide (70000 bits)");
      ("unused = nope", "undeclared identifier nope");
      ("unused[70000:0] = x", "part-select too wide (70001 bits)");
      ("nope = x", "undeclared identifier nope in top.u");
    ]

(* Where two operands both raise, the order the language leaves open is
   fixed and shared: a conditional on x evaluates its then-arm before its
   else-arm, and a part-select its msb before its lsb, so both backends
   report the first operand's error. *)
let test_raising_operand_order () =
  List.iter
    (fun (assign, msg) ->
      match run_both (raising_src assign) with
      | Error (Sim.Simulate.Elab_failure me), Error (Sim.Simulate.Elab_failure mc)
        ->
          Alcotest.(check string) (assign ^ ": event error") msg me;
          Alcotest.(check string) (assign ^ ": same error") me mc
      | Ok _, _ -> Alcotest.failf "%s: event run should fail" assign
      | _, Ok _ -> Alcotest.failf "%s: compiled run should fail" assign)
    [
      ("unused = 1'bx ? nope1 : nope2", "undeclared identifier nope1");
      ( "unused = 1'bx ? {70000{x}} : {80000{x}}",
        "replication too wide (560000 bits)" );
      ("unused = x[nope1:nope2]", "undeclared identifier nope1");
      ("unused[nope1:nope2] = x", "undeclared identifier nope1");
    ]

(* The corners of the allocation-free clock edge: one NBA log shared by
   compiled bodies and the event engine, stores that box only on change,
   waiter groups reused across arms, plane-valued expressions beside the
   boxed wide path.  Each design must compile and match the event engine
   byte for byte. *)
let corner_src ~decls ~body ~outputs =
  Printf.sprintf
    "module dut(clk, %s);\n\
    \  input clk;\n\
    %s\n\
    %s\n\
     endmodule\n\
     module top;\n\
    \  reg clk;\n\
    \  dut u(clk);\n\
    \  initial clk = 0;\n\
    \  always #5 clk = ~clk;\n\
    \  initial #200 $finish;\n\
     endmodule\n"
    outputs decls body

let check_corner ?(expect = []) src =
  match run_both src with
  | Ok e, Ok c ->
      check_same_run e c;
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "display mentions %S" sub)
            true
            (contains e.Sim.Simulate.display sub))
        expect
  | Error (Sim.Simulate.Elab_failure m), _ | _, Error (Sim.Simulate.Elab_failure m)
    ->
      Alcotest.failf "elab failed: %s" m

(* x goes 0 -> 1 -> 0 inside one NBA region: the 0 -> 1 commit wakes the
   posedge waiter even though x ends the region where it started. *)
let test_nba_pulse_wakes_posedge () =
  check_corner ~expect:[ "hits 1"; "hits 9" ]
    (corner_src ~outputs:"x, hits"
       ~decls:"  output x;\n  output [7:0] hits;\n  reg x;\n  reg [7:0] hits;"
       ~body:
         "  initial begin x = 0; hits = 0; end\n\
         \  always @(posedge clk) begin x <= 1; x <= 0; end\n\
         \  always @(posedge x) begin hits = hits + 1; $display(\"hits %0d\", hits); end")

(* The word index is resolved when the NBA is scheduled: the blocking
   [i = i + 1] after it does not move the commit. *)
let test_nba_word_index_at_schedule () =
  check_corner ~expect:[ "4 5 6 3"; "10 11 12 f" ]
    (corner_src ~outputs:"w0, w3"
       ~decls:
         "  output [7:0] w0, w3;\n\
         \  reg [7:0] mem [0:3];\n\
         \  reg [1:0] i;\n\
         \  reg [7:0] n;\n\
         \  wire [7:0] w0 = mem[0];\n\
         \  wire [7:0] w3 = mem[3];"
       ~body:
         "  initial begin i = 0; n = 0; end\n\
         \  always @(posedge clk) begin\n\
         \    mem[i] <= n;\n\
         \    i = i + 1;\n\
         \    n = n + 1;\n\
         \  end\n\
         \  always @(negedge clk) $display(\"%h %h %h %h\", mem[0], mem[1], mem[2], mem[3]);")

(* A delayed NBA commits in a later slot's log, after the clock edge that
   scheduled it and before the next. *)
let test_delayed_nba () =
  check_corner ~expect:[ "7 q=1"; "17 q=0" ]
    (corner_src ~outputs:"q"
       ~decls:"  output q;\n  reg q, d;"
       ~body:
         "  initial begin q = 0; d = 1; end\n\
         \  always @(posedge clk) begin q <= #2 d; d = ~d; end\n\
         \  always @(q) $display(\"%0t q=%b\", $time, q);")

(* $finish in the middle of a body: the NBAs the body scheduled before it
   are never applied. *)
let test_finish_drops_pending_nbas () =
  let src =
    "module dut(clk, q);\n\
    \  input clk;\n\
    \  output [7:0] q;\n\
    \  reg [7:0] q, r;\n\
    \  initial begin q = 0; r = 0; end\n\
    \  always @(posedge clk) begin\n\
    \    q <= q + 1;\n\
    \    r <= 8'hAA;\n\
    \    if (q == 3) $finish;\n\
    \  end\n\
     endmodule\n\
     module top;\n\
    \  reg clk;\n\
    \  wire [7:0] q;\n\
    \  dut u(clk, q);\n\
    \  initial clk = 0;\n\
    \  always #5 clk = ~clk;\n\
     endmodule\n"
  in
  check_corner src;
  (* Final state, read from each backend's elaborated variables. *)
  let design = Verilog.Parser.parse_design src in
  let final run =
    let elab = Sim.Elaborate.elaborate design ~top:"top" in
    let outcome = run elab in
    Alcotest.(check bool) "finished" true (outcome = Sim.Engine.Finished);
    let value name =
      match Sim.Runtime.find_var elab.Sim.Elaborate.st name with
      | Some v -> Logic4.Packed.to_int v.Sim.Runtime.v_value
      | None -> Alcotest.failf "no var %s" name
    in
    (value "top.u.q", value "top.u.r")
  in
  let event = final Sim.Engine.run
  and compiled = final (fun elab -> Sim.Compile.run (Sim.Compile.compile elab)) in
  Alcotest.(check (pair (option int) (option int)))
    "q stays 3, r keeps its last committed value" (Some 3, Some 0xAA) event;
  Alcotest.(check (pair (option int) (option int))) "same final state" event compiled

(* Values of 62 bits and more take the boxed route inside the same
   compiled bodies: blocking and nonblocking stores, a wide concatenation
   and a narrow select of a wide value. *)
let test_wide_stores () =
  check_corner ~expect:[ "1" ]
    (corner_src ~outputs:"w, big, lo"
       ~decls:
         "  output [63:0] w;\n\
         \  output [69:0] big;\n\
         \  output [3:0] lo;\n\
         \  reg [63:0] w;\n\
         \  reg [69:0] big;\n\
         \  reg [3:0] lo;"
       ~body:
         "  initial begin w = 64'h8000_0000_0000_0001; big = 0; lo = 0; end\n\
         \  always @(posedge clk) begin\n\
         \    w <= {w[62:0], ~w[63]};\n\
         \    big = {big[68:0], w[0]} + 70'd3;\n\
         \    lo <= big[69:66] ^ w[63:60];\n\
         \    $display(\"%b %b %b\", w, big, lo);\n\
         \  end")

(* Logical and conditional operators on x/z operands: short-circuit exits,
   unknown truth, and the bitwise merge of a ?: with an unknown
   condition. *)
let test_logic_on_xz () =
  check_corner ~expect:[ "x" ]
    (corner_src ~outputs:"r"
       ~decls:
         "  output [15:0] r;\n\
         \  reg [15:0] r;\n\
         \  reg [3:0] a;\n\
         \  reg b, c;"
       ~body:
         "  initial begin a = 4'bx01z; end\n\
         \  always @(posedge clk) begin\n\
         \    r[0] <= a && b;\n\
         \    r[1] <= a || b;\n\
         \    r[2] <= b && 1'b0;\n\
         \    r[3] <= c || 1'b1;\n\
         \    r[7:4] <= b ? a : ~a;\n\
         \    r[11:8] <= 1'bx ? 4'b1010 : 4'b1001;\n\
         \    r[15:12] <= (a[0] && b) ? 4'hF : {a[3], 3'b010};\n\
         \    $display(\"%b %b %b %b\", r, a, b, c);\n\
         \    a = a + 1;\n\
         \    if (a == 4'd3) b = 1;\n\
         \    c = b;\n\
         \  end")

(* A mixed-sensitivity process reuses its waiter records: a wake through
   one signal leaves the record on the other stale, and re-arming must
   move it, not add a second live copy, or the list grows by one per
   clock edge. *)
let test_mixed_edge_waiters_reused () =
  let src =
    "module dut(clk, rst, q);\n\
    \  input clk, rst;\n\
    \  output [7:0] q;\n\
    \  reg [7:0] q;\n\
    \  always @(posedge clk or posedge rst)\n\
    \    if (rst) q <= 0; else q <= q + 1;\n\
     endmodule\n\
     module top;\n\
    \  reg clk, rst;\n\
    \  wire [7:0] q;\n\
    \  dut u(clk, rst, q);\n\
    \  initial begin clk = 0; rst = 1; #7 rst = 0; end\n\
    \  always #5 clk = ~clk;\n\
    \  initial #400 $finish;\n\
     endmodule\n"
  in
  check_corner src;
  let elab = Sim.Elaborate.elaborate (Verilog.Parser.parse_design src) ~top:"top" in
  ignore (Sim.Compile.run (Sim.Compile.compile elab));
  List.iter
    (fun name ->
      match Sim.Runtime.find_var elab.Sim.Elaborate.st name with
      | Some v ->
          Alcotest.(check int)
            (name ^ " holds one waiter record")
            1
            (List.length v.Sim.Runtime.v_waiters)
      | None -> Alcotest.failf "no var %s" name)
    [ "top.u.clk"; "top.u.rst" ]

let () =
  Alcotest.run "compile"
    [
      ( "levelize",
        [
          Alcotest.test_case "diamond order and pruning stats" `Quick
            test_diamond_levelization;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "multi-driven net" `Quick
            test_fallback_multi_driven;
          Alcotest.test_case "combinational cycle" `Quick
            test_fallback_comb_cycle;
          Alcotest.test_case "auto run reports fallback" `Quick
            test_auto_run_reports_fallback;
        ] );
      ( "hard shapes",
        [
          Alcotest.test_case "delays, named events, nonblocking" `Quick
            test_hard_shapes_compile_and_match;
          Alcotest.test_case "stores and edges across 61 bits" `Quick
            test_boundary_stores_and_edges;
          Alcotest.test_case "unread binding that raises" `Quick
            test_unread_raising_binding;
          Alcotest.test_case "operand order when both raise" `Quick
            test_raising_operand_order;
        ] );
      ( "edge corners",
        [
          Alcotest.test_case "nba pulse wakes posedge" `Quick
            test_nba_pulse_wakes_posedge;
          Alcotest.test_case "nba word index at schedule" `Quick
            test_nba_word_index_at_schedule;
          Alcotest.test_case "delayed nba" `Quick test_delayed_nba;
          Alcotest.test_case "finish drops pending nbas" `Quick
            test_finish_drops_pending_nbas;
          Alcotest.test_case "wide stores" `Quick test_wide_stores;
          Alcotest.test_case "logic on x/z" `Quick test_logic_on_xz;
          Alcotest.test_case "mixed-edge waiters reused" `Quick
            test_mixed_edge_waiters_reused;
        ] );
    ]
