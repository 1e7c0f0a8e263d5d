(* Defect 5's faulty counter with provably-dead code spliced in — an
   unread debug register and an if (1'b0) branch. Edits confined to the
   dead region leave [Dataflow.prune_hash] unchanged, so the evaluator
   serves them via the dead-edit lane. *)

let defect () = Bench_suite.Defects.find 5

let faulty_source () : string =
  let d = defect () in
  let p = Bench_suite.Projects.find d.project in
  let src =
    List.fold_left
      (fun src rw -> Bench_suite.Defects.replace_once ~defect:d.id src rw)
      (Bench_suite.Projects.design_source p)
      d.rewrites
  in
  let src =
    Bench_suite.Defects.replace_once ~defect:d.id src
      ("reg overflow_out;", "reg overflow_out;\n  reg [3:0] dbg_trace;")
  in
  Bench_suite.Defects.replace_once ~defect:d.id src
    ( "begin: COUNTER",
      "begin: COUNTER\n\
       \    dbg_trace <= counter_out;\n\
       \    if (1'b0) begin\n\
       \      dbg_trace <= 4'b0000;\n\
       \    end" )

let problem () : Cirfix.Problem.t =
  let d = defect () in
  let p = Bench_suite.Projects.find d.project in
  Cirfix.Problem.make ~name:"counter#5+dead" ~faulty:(faulty_source ())
    ~golden:(Bench_suite.Projects.design_source p)
    ~testbench:(Bench_suite.Projects.tb_source p)
    ~target:d.target (Bench_suite.Projects.spec p)
