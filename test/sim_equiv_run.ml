(* Backend-equivalence sweep: the compiled cycle evaluator must be
   observationally identical to the event engine on every benchmark design
   and every defect scenario, or fall back — visibly — to the event
   engine.

   Two passes:

   - trace pass: every project x {tb, tb2} pair is simulated under both
     backends; the recorded trace (Sim.Recorder), $display log, outcome,
     step count, and end time must be byte-identical. Designs the compiler
     rejects fall back (reported, not failed): the result is then an
     event-engine run and equality is the trivial consequence we still
     assert.

   - fitness pass: every defect scenario is scored by two Evaluate
     instances differing only in [cfg.backend]; the seed candidate's
     fitness and status must match exactly. This is the contract the
     repair loop relies on: a --backend flip may change throughput, never
     scores.

   Usage: sim_equiv_run [--all]
   The default is a fast smoke subset (wired into `dune runtest`); --all
   sweeps all projects and all scenarios (`dune build @sim-equiv`). *)

let trace_pair (p : Bench_suite.Projects.t) idx (tb : string) : bool =
  let spec = Bench_suite.Projects.spec p in
  let src = Bench_suite.Projects.design_source p ^ "\n" ^ tb in
  let design = Verilog.Parser.parse_design src in
  let run backend = Sim.Simulate.run ~backend design spec in
  match (run Sim.Simulate.Event, run Sim.Simulate.Compiled) with
  | Ok a, Ok b ->
      let tr (r : Sim.Simulate.result) = Sim.Recorder.to_string r.trace in
      let used = Sim.Simulate.backend_used_to_string b.backend_used in
      (match b.backend_used with
      | Sim.Simulate.Used_fallback reason ->
          Printf.printf "  fallback %s tb%d: %s\n%!" p.name idx reason
      | _ -> ());
      if
        String.equal (tr a) (tr b)
        && String.equal a.display b.display
        && a.outcome = b.outcome && a.steps = b.steps
        && a.end_time = b.end_time
      then true
      else begin
        Printf.printf
          "FAIL %s tb%d (%s): trace=%b display=%b outcome=%b steps=%d/%d \
           end_time=%d/%d\n\
           %!"
          p.name idx used
          (String.equal (tr a) (tr b))
          (String.equal a.display b.display)
          (a.outcome = b.outcome) a.steps b.steps a.end_time b.end_time;
        false
      end
  | Error (Sim.Simulate.Elab_failure ea), Error (Sim.Simulate.Elab_failure eb)
    when String.equal ea eb ->
      true
  | _ ->
      Printf.printf "FAIL %s tb%d: result kind differs between backends\n%!"
        p.name idx;
      false

let fitness_scenario (d : Bench_suite.Defects.t) : bool =
  let problem = Bench_suite.Defects.problem d in
  let score backend =
    let cfg = { Cirfix.Config.default with backend; jobs = 1 } in
    let ev = Cirfix.Evaluate.create cfg problem in
    let o =
      Cirfix.Evaluate.eval_module ev (Cirfix.Problem.target_module problem)
    in
    (o, Cirfix.Evaluate.get ev.table Compiled_fallbacks)
  in
  let oe, _ = score Sim.Simulate.Event in
  let oc, fallbacks = score Sim.Simulate.Compiled in
  if fallbacks > 0 then
    Printf.printf "  fallback scenario #%d (%s)\n%!" d.id d.project;
  if
    Float.equal oe.fitness oc.fitness
    && String.equal
         (Cirfix.Evaluate.status_label oe.status)
         (Cirfix.Evaluate.status_label oc.status)
  then true
  else begin
    Printf.printf "FAIL scenario #%d (%s): event %.9f/%s vs compiled %.9f/%s\n%!"
      d.id d.project oe.fitness
      (Cirfix.Evaluate.status_label oe.status)
      oc.fitness
      (Cirfix.Evaluate.status_label oc.status);
    false
  end

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
  let scenarios =
    if all then Bench_suite.Defects.all
    else
      List.filter
        (fun (d : Bench_suite.Defects.t) -> d.id <= 6)
        Bench_suite.Defects.all
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
  Printf.printf "== fitness equivalence (%d scenarios)\n%!"
    (List.length scenarios);
  let scored = ref 0 in
  List.iter
    (fun d ->
      incr scored;
      if not (fitness_scenario d) then incr failures)
    scenarios;
  Printf.printf "sim-equiv: %d trace pairs, %d scenarios, %d failures\n%!"
    !pairs !scored !failures;
  if !failures > 0 then exit 1
