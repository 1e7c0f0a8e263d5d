(* Backend-equivalence sweep: the compiled cycle evaluator must be
   observationally identical to the event engine on every benchmark design
   and every defect scenario, or fall back — visibly — to the event
   engine.

   Three passes:

   - trace pass: every project x {tb, tb2} pair is simulated under both
     backends; the recorded trace (Sim.Recorder), $display log, outcome,
     step count, and end time must be byte-identical. Designs the compiler
     rejects fall back (reported, not failed): the result is then an
     event-engine run and equality is the trivial consequence we still
     assert.

   - seed pass: every defect scenario's seed candidate runs under both
     backends with the repair loop's candidate budgets; trace, display,
     outcome, steps and end time must be byte-identical, or both
     backends must fail elaboration with the same message. Fitness and
     status are functions of that result, so this is the contract the
     repair loop relies on: the compiled backend may change throughput,
     never scores.

   - mutant pass: the seeded mutant walks of every scenario (the ones
     deps_golden_run prints, see [Mutants]) run under both backends with
     the repair loop's candidate budgets; trace, display, outcome, steps
     and end time must be byte-identical, or both backends must fail
     elaboration with the same message.

   Usage: sim_equiv_run [--all]
   The default is a fast smoke subset (wired into `dune runtest`): four
   projects, scenarios #1-#6 and the first [Mutants.smoke_rounds] mutant
   rounds; --all sweeps all projects, all scenarios and all
   [Mutants.rounds] rounds (`dune build @sim-equiv`). *)

(* Event and [Auto] results of one design must agree on the trace, the
   $display log, the outcome, the step count and the end time, or fail
   elaboration with the same message. *)
let same_runs label design spec ?max_steps ?max_time () : bool =
  let run backend = Sim.Simulate.run ?max_steps ?max_time ~backend design spec in
  match (run Sim.Simulate.Event, run Sim.Simulate.Auto) with
  | Ok a, Ok b ->
      let tr (r : Sim.Simulate.result) = Sim.Recorder.to_string r.trace in
      let used = Sim.Simulate.backend_used_to_string b.backend_used in
      (match b.backend_used with
      | Sim.Simulate.Used_fallback reason ->
          Printf.printf "  fallback %s: %s\n%!" label reason
      | _ -> ());
      if
        String.equal (tr a) (tr b)
        && String.equal a.display b.display
        && a.outcome = b.outcome && a.steps = b.steps
        && a.end_time = b.end_time
      then true
      else begin
        Printf.printf
          "FAIL %s (%s): trace=%b display=%b outcome=%b steps=%d/%d \
           end_time=%d/%d\n\
           %!"
          label used
          (String.equal (tr a) (tr b))
          (String.equal a.display b.display)
          (a.outcome = b.outcome) a.steps b.steps a.end_time b.end_time;
        false
      end
  | Error (Sim.Simulate.Elab_failure ea), Error (Sim.Simulate.Elab_failure eb)
    when String.equal ea eb ->
      true
  | Error (Sim.Simulate.Elab_failure ea), Error (Sim.Simulate.Elab_failure eb)
    ->
      Printf.printf "FAIL %s: elaboration error differs: %S vs %S\n%!" label ea
        eb;
      false
  | _ ->
      Printf.printf "FAIL %s: result kind differs between backends\n%!" label;
      false

let trace_pair (p : Bench_suite.Projects.t) idx (tb : string) : bool =
  let spec = Bench_suite.Projects.spec p in
  let src = Bench_suite.Projects.design_source p ^ "\n" ^ tb in
  let design = Verilog.Parser.parse_design src in
  same_runs (Printf.sprintf "%s tb%d" p.name idx) design spec ()

(* Mutant [m] of scenario [problem], under the candidate budgets the
   repair loop gives it (Evaluate.simulate_candidate). *)
let mutant_run (problem : Cirfix.Problem.t) label m : bool =
  let cfg = Cirfix.Config.default in
  let max_steps =
    min cfg.max_sim_steps ((problem.golden_steps * 10) + 5_000)
  and max_time =
    min cfg.max_sim_time ((problem.golden_end_time * 2) + 1_000)
  in
  same_runs label
    (Cirfix.Problem.with_candidate problem m)
    problem.spec ~max_steps ~max_time ()

(* The seed candidate of a scenario, as the evaluator scores it first:
   equal runs under both backends give equal fitness and status. *)
let seed_run (d : Bench_suite.Defects.t) problem : bool =
  mutant_run problem
    (Printf.sprintf "seed #%d (%s)" d.id d.project)
    (Cirfix.Problem.target_module problem)

let () =
  let all = Array.exists (String.equal "--all") Sys.argv in
  let projects =
    if all then Bench_suite.Projects.all
    else
      (* Smoke subset: small designs plus one multi-module project, both
         a compiled-eligible and a fallback-shaped testbench among them. *)
      List.filter
        (fun (p : Bench_suite.Projects.t) ->
          List.mem p.name
            [ "counter"; "decoder_3_to_8"; "flip_flop"; "fsm_full" ])
        Bench_suite.Projects.all
  in
  let problems =
    List.map
      (fun d -> (d, Bench_suite.Defects.problem d))
      Bench_suite.Defects.all
  in
  let scenarios =
    if all then problems
    else
      List.filter
        (fun ((d : Bench_suite.Defects.t), _) -> d.id <= 6)
        problems
  in
  let failures = ref 0 in
  let pairs = ref 0 in
  Printf.printf "== trace equivalence (%d projects x 2 testbenches)\n%!"
    (List.length projects);
  List.iter
    (fun (p : Bench_suite.Projects.t) ->
      List.iteri
        (fun i tb ->
          incr pairs;
          if not (trace_pair p (i + 1) tb) then incr failures)
        [ Bench_suite.Projects.tb_source p; Bench_suite.Projects.tb2_source p ])
    projects;
  Printf.printf "== seed equivalence (%d scenarios)\n%!"
    (List.length scenarios);
  let scored = ref 0 in
  List.iter
    (fun (d, problem) ->
      incr scored;
      if not (seed_run d problem) then incr failures)
    scenarios;
  (* Seeded mutants of every scenario, round by round, as
     deps_golden_run walks them. *)
  let n = if all then Mutants.rounds else Mutants.smoke_rounds in
  Printf.printf "== mutant equivalence (%d rounds x %d scenarios)\n%!" n
    (List.length problems);
  let walks =
    List.map
      (fun ((d : Bench_suite.Defects.t), problem) ->
        (d, problem, Mutants.walk d (Cirfix.Problem.target_module problem) ~n))
      problems
  in
  let mutants = ref 0 in
  for r = 0 to n - 1 do
    List.iter
      (fun ((d : Bench_suite.Defects.t), problem, walk) ->
        let m, edit = List.nth walk r in
        incr mutants;
        let label = Printf.sprintf "mutant #%d.%d %s" d.id r edit in
        if not (mutant_run problem label m) then incr failures)
      walks
  done;
  Printf.printf
    "sim-equiv: %d trace pairs, %d scenarios, %d mutants, %d failures\n%!"
    !pairs !scored !mutants !failures;
  if !failures > 0 then exit 1
