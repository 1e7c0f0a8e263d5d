(* A debugging session with the supporting tooling: take the faulty
   4-bit counter, lint it, measure testbench coverage, render the faulty
   trace against the oracle as ASCII waveforms, and dump a VCD for a
   waveform viewer — everything a designer would reach for before (or
   instead of) running the repair search.

     dune exec examples/debugging_workflow.exe *)

let () =
  let d = Bench_suite.Defects.find 4 in
  Printf.printf "scenario #%d: %s - %s\n\n" d.id d.project d.description;
  let problem = Bench_suite.Defects.problem d in

  (* 1. Lint the faulty design: style checks catch many defect classes
     before any simulation. (This one is a missing assignment, which lint
     alone cannot see - the repair loop exists for exactly these.) *)
  print_endline "=== lint ===";
  let faulty_design =
    [ Cirfix.Problem.target_module problem ]
  in
  List.iter
    (fun (mod_name, findings) ->
      if findings = [] then Printf.printf "%s: clean\n" mod_name
      else
        List.iter
          (fun f -> Format.printf "%s: %a@." mod_name Verilog.Lint.pp_finding f)
          findings)
    (Verilog.Lint.check_design faulty_design);

  (* 2. Statement coverage of the testbench over the faulty design: a
     low-coverage bench would also mean a weak oracle. *)
  print_endline "\n=== statement coverage ===";
  let elab = Sim.Elaborate.elaborate problem.design ~top:problem.spec.top in
  Sim.Runtime.enable_coverage elab.st;
  ignore (Sim.Engine.run elab);
  List.iter
    (fun (r : Sim.Coverage.module_report) ->
      if r.mr_module = d.target then Format.printf "%a" Sim.Coverage.pp r)
    (Sim.Coverage.report elab.st problem.design);

  (* 3. Waveform diff: where does the faulty design diverge? *)
  print_endline "\n=== waveform: faulty vs expected ===";
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  let o = Cirfix.Evaluate.eval_module ev (Cirfix.Problem.target_module problem) in
  print_string
    (Sim.Wave.render_diff
       ~expected:(Cirfix.Oracle.to_trace problem.oracle)
       ~actual:o.trace);

  (* 4. VCD dump for a real waveform viewer. *)
  let elab2 = Sim.Elaborate.elaborate problem.design ~top:problem.spec.top in
  let vcd = Sim.Vcd.attach elab2.st in
  ignore (Sim.Engine.run elab2);
  let path = Filename.temp_file "cirfix_counter" ".vcd" in
  Sim.Vcd.to_file vcd path;
  Printf.printf "\nVCD waveform written to %s (open with GTKWave)\n" path
