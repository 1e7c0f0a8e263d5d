(* Unit tests for semantic slicing: cone construction (backward with
   write closure, forward), slice extraction, testbench instance
   rewriting, and the repair-side Slicing.prepare engagement/fallback
   contract. The dynamic soundness sweep lives in slice_equiv_run.ml. *)

open Verilog

let parse_m src =
  match Parser.parse_design src with
  | [ m ] -> m
  | _ -> Alcotest.fail "one module expected"

(* Two independent chains: y depends on a through t; z depends on b. *)
let chains_src =
  "module m(a, b, y, z);\n\
  \  input a, b; output y, z; reg y, z; wire t;\n\
  \  assign t = a;\n\
  \  always @(*) y = t;\n\
  \  always @(*) z = b;\n\
   endmodule"

(* The node writing [net], for tests that need concrete item ids. *)
let writer g net =
  match
    List.find_opt (fun (n : Deps.node) -> Deps.Names.mem net n.writes)
      (Deps.nodes g)
  with
  | Some n -> n
  | None -> Alcotest.fail ("no node writes " ^ net)

let test_backward_cone () =
  let m = parse_m chains_src in
  let g = Deps.build m in
  let ids, names = Slice.backward g (Slice.Names.singleton "y") in
  Alcotest.(check int) "y cone: two nodes" 2 (Slice.Ids.cardinal ids);
  Alcotest.(check bool) "y cone names" true
    (List.for_all (fun n -> Slice.Names.mem n names) [ "a"; "t"; "y" ]);
  Alcotest.(check bool) "b outside y's cone" false (Slice.Names.mem "b" names);
  let ids_z, _ = Slice.backward g (Slice.Names.singleton "z") in
  Alcotest.(check int) "z cone: one node" 1 (Slice.Ids.cardinal ids_z)

let test_write_closure () =
  (* s is multiply driven: the cone of y must keep both writers, or the
     sliced value of s (hence y) could differ from the whole design's. *)
  let m =
    parse_m
      "module m(clk, y); input clk; output y; reg y; reg s;\n\
       always @(posedge clk) s <= 1'b0;\n\
       always @(posedge clk) s <= 1'b1;\n\
       always @(posedge clk) y <= s;\n\
       endmodule"
  in
  let g = Deps.build m in
  let ids, _ = Slice.backward g (Slice.Names.singleton "y") in
  Alcotest.(check int) "all three nodes kept" 3 (Slice.Ids.cardinal ids)

let test_forward_cone () =
  let m = parse_m chains_src in
  let g = Deps.build m in
  let t_writer = writer g "t" in
  let fwd = Slice.forward g (Slice.Ids.singleton t_writer.id) in
  Alcotest.(check bool) "reaches y's writer" true
    (Slice.Ids.mem (writer g "y").id fwd);
  Alcotest.(check bool) "does not reach z's writer" false
    (Slice.Ids.mem (writer g "z").id fwd)

let test_slice_extraction () =
  let m = parse_m chains_src in
  let plan = Slice.slice m ~outputs:[ "y" ] in
  Alcotest.(check (list string)) "outputs" [ "y" ] plan.sl_outputs;
  Alcotest.(check (list string)) "inputs" [ "a" ] plan.sl_inputs;
  Alcotest.(check int) "one node dropped" 1 (List.length plan.sl_dropped);
  Alcotest.(check (list string)) "slice header" [ "y" ]
    (Slice.output_ports plan.sl_module);
  Alcotest.(check bool) "slice is smaller" true
    (Ast_utils.module_size plan.sl_module < Ast_utils.module_size m)

let tb_src =
  "module tb; reg a, b; wire y, z;\n\
   m dut(.a(a), .b(b), .y(y), .z(z));\n\
   initial begin a = 0; b = 0; #10 a = 1; #10 $finish; end\n\
   endmodule"

let test_rewrite_testbench () =
  let target = parse_m chains_src in
  let tb = parse_m tb_src in
  let plan = Slice.slice target ~outputs:[ "y" ] in
  let tb' = Slice.rewrite_testbench ~tb ~inst:"dut" ~target plan in
  let printed = Pp.module_to_string tb' in
  let contains needle =
    try
      ignore (Str.search_forward (Str.regexp_string needle) printed 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) "kept port connections" true
    (contains ".a(a)" && contains ".y(y)");
  Alcotest.(check bool) "dropped port connections removed" false
    (contains ".b(" || contains ".z(")

(* --- Repair-side engagement ---------------------------------------------- *)

(* i2c's watchdog process is outside the mismatch cone of its defect
   scenarios: prepare must engage and drop it. *)
let test_prepare_engages () =
  let d = Bench_suite.Defects.find 18 in
  let problem = Bench_suite.Defects.problem d in
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  match Cirfix.Slicing.prepare ev with
  | None -> Alcotest.fail "prepare fell back on i2c"
  | Some s ->
      Alcotest.(check bool) "dropped something" true (s.plan.sl_dropped <> []);
      (* Stitching the empty patch reproduces the whole target module. *)
      Alcotest.(check string) "stitch [] = whole"
        (Ast_utils.structural_hash s.whole_target)
        (Ast_utils.structural_hash (Cirfix.Slicing.stitch s []))

(* sdram_controller's mismatch cone covers the whole design (the command
   tracer derives from the mismatching command stream): prepare must
   fall back honestly rather than produce a trivial whole-module slice. *)
let test_prepare_falls_back () =
  let d = Bench_suite.Defects.find 31 in
  let problem = Bench_suite.Defects.problem d in
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  Alcotest.(check bool) "prepare returns None" true
    (Cirfix.Slicing.prepare ev = None)

let () =
  Alcotest.run "slice"
    [
      ( "cones",
        [
          Alcotest.test_case "backward" `Quick test_backward_cone;
          Alcotest.test_case "write closure" `Quick test_write_closure;
          Alcotest.test_case "forward" `Quick test_forward_cone;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "backward slice" `Quick test_slice_extraction;
        ] );
      ( "harness",
        [
          Alcotest.test_case "rewrite testbench" `Quick test_rewrite_testbench;
        ] );
      ( "repair",
        [
          Alcotest.test_case "prepare engages" `Quick test_prepare_engages;
          Alcotest.test_case "prepare falls back" `Quick test_prepare_falls_back;
        ] );
    ]
