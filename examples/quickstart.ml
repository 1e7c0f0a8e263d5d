(* Quickstart: the paper's motivating example end to end.

   We take the 4-bit counter of Figure 1, remove the overflow-bit reset
   (the paper's "incorrect reset" defect), derive the expected-behaviour
   oracle from the golden design, localize the fault, and let CirFix search
   for a repair.

     dune exec examples/quickstart.exe *)

let () =
  (* 1. Sources: the golden counter and its testbench ship in the corpus. *)
  let golden = Corpus.read "counter.v" in
  let testbench = Corpus.read "counter_tb.v" in

  (* 2. Transplant the defect: drop the overflow reset (Figure 1a line 32). *)
  let defect = "overflow_out <= #1 1'b0;" in
  let i = Str.search_forward (Str.regexp_string defect) golden 0 in
  let faulty =
    String.sub golden 0 i
    ^ String.sub golden (i + String.length defect)
        (String.length golden - i - String.length defect)
  in
  ignore i;

  (* 3. Build the repair problem. The oracle comes from simulating the
     golden design under the instrumented testbench. *)
  let spec : Sim.Simulate.spec =
    { top = "counter_tb"; clock = "counter_tb.clk"; dut_path = "counter_tb.dut" }
  in
  let problem =
    Cirfix.Problem.make ~name:"quickstart" ~faulty ~golden ~testbench
      ~target:"counter" spec
  in

  (* 4. How broken is it? Simulate and compare against the oracle. *)
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  let faulty_outcome =
    Cirfix.Evaluate.eval_module ev (Cirfix.Problem.target_module problem)
  in
  Printf.printf "fitness of the faulty counter: %.3f (paper reports 0.58)\n"
    faulty_outcome.fitness;
  Printf.printf "mismatched outputs: %s\n\n"
    (String.concat ", "
       (Cirfix.Fitness.mismatched_signals ~expected:problem.oracle
          ~actual:faulty_outcome.trace));

  (* 5. Search for a repair (Algorithm 1). *)
  let cfg =
    {
      Cirfix.Config.default with
      seed = 1;
      pop_size = 60;
      max_generations = 40;
      max_probes = 8000;
    }
  in
  let rec attempt seed =
    let r = Cirfix.Gp.repair { cfg with seed } problem in
    match (r.minimized, r.repaired_module) with
    | Some patch, Some m -> (seed, r, patch, m)
    | _ ->
        if seed >= 5 then (
          print_endline "no repair found in 5 trials";
          exit 1)
        else attempt (seed + 1)
  in
  let seed, result, patch, repaired = attempt 1 in
  Printf.printf "repaired on seed %d after %d fitness probes (%.2fs)\n" seed
    (Cirfix.Evaluate.get result.counters Probes)
    result.wall_seconds;
  Printf.printf "minimized patch (%d edits): %s\n\n" (List.length patch)
    (Cirfix.Patch.to_string patch);

  (* 6. Show the repaired Verilog, ready for developer review. *)
  print_endline "--- repaired module ---";
  print_endline (Verilog.Pp.module_to_string repaired)
