(* Backend-equivalence sweep: the compiled cycle evaluator must be
   observationally identical to the event engine on every benchmark design
   and every defect scenario, or fall back — visibly — to the event
   engine.

   Five passes:

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

   - patch-local pass: the same mutant walks, each run once on the
     compiled backend built patch-locally from its scenario's seed (whose
     base is warm) and once from a cold full build of a deep copy of the
     design (a [Marshal] round trip: structurally identical, physically
     sharing nothing with any base); trace, display, outcome, steps and
     end time must be byte-identical, or both builds must fail
     elaboration with the same message. Mutants whose edit reaches beyond
     process bodies (a continuous assignment) are built in full both
     times and counted apart. A printed-and-parsed copy would not do: the
     parser reads a null statement in a branch or body position
     ([if (c) ;]) as no statement, which executes one statement fewer.
     Each patch-local mutant's schedule is also checked directly:
     [Compile.derive] from the seed's full build must give the same
     time-0 order, dynamic order, external inputs and statistics as
     [Compile.compile] of a cold elaboration of the copy, or both must
     fall back for the same reason.

   - known bits: the pairs, the scenario seeds and the mutants also run
     once more on the event backend, and every bit that
     [Dataflow.facts_of] calls known must equal the net's value (each
     word's, for a memory) at the end of that run, in every instance
     whose parameters keep their default values, the ones Dataflow
     evaluates. Runs that fail to elaborate are skipped.

   Usage: sim_equiv_run [--all]
   The default is a fast smoke subset (wired into `dune runtest`): four
   projects, scenarios #1-#6 and the first [Mutants.smoke_rounds] mutant
   rounds; --all sweeps all projects, all scenarios and all
   [Mutants.rounds] rounds (`dune build @sim-equiv`). *)

(* Two runs must agree on the trace, the $display log, the outcome, the
   step count and the end time, or fail elaboration with the same
   message. *)
let same_results label (ra : (Sim.Simulate.result, Sim.Simulate.error) result)
    (rb : (Sim.Simulate.result, Sim.Simulate.error) result) : bool =
  match (ra, rb) with
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
      Printf.printf "FAIL %s: result kind differs between runs\n%!" label;
      false

(* Event and [Auto] results of one design. *)
let same_runs label design spec ?max_steps ?max_time () : bool =
  let run backend = Sim.Simulate.run ?max_steps ?max_time ~backend design spec in
  let a = run Sim.Simulate.Event in
  same_results label a (run Sim.Simulate.Auto)

(* The known-bits pass (see the header). Designs that fail to elaborate
   or to run are skipped. *)
let known_instances = ref 0
let known_bits = ref 0

let facts_cache : (Verilog.Ast.module_decl * Verilog.Dataflow.facts) list ref =
  ref []

let facts_of (m : Verilog.Ast.module_decl) =
  match List.assq_opt m !facts_cache with
  | Some f -> f
  | None ->
      let f = Verilog.Dataflow.facts_of m in
      facts_cache := (m, f) :: !facts_cache;
      f

let defaults_kept (m : Verilog.Ast.module_decl) (sc : Sim.Runtime.scope) =
  let d = Verilog.Dataflow.denv_of m in
  Hashtbl.fold
    (fun name b ok ->
      ok
      &&
      match b with
      | Sim.Runtime.Bconst c -> (
          match Verilog.Dataflow.param_value d name with
          | Some v -> Logic4.Packed.(equal v (of_vec c))
          | None -> false)
      | Sim.Runtime.Bvar _ -> true)
    sc.Sim.Runtime.sc_bindings true

let known_bits_run label (design : Verilog.Ast.design) (spec : Sim.Simulate.spec)
    ?max_steps ?max_time () : bool =
  match
    let elab = Sim.Elaborate.elaborate ?max_steps ?max_time design ~top:spec.top in
    ignore (Sim.Engine.run elab);
    elab
  with
  | exception Sim.Runtime.Elab_error _ -> true
  | elab ->
      let ok = ref true in
      List.iter
        (fun (sc : Sim.Runtime.scope) ->
          match
            List.find_opt
              (fun (m : Verilog.Ast.module_decl) -> m.mod_id = sc.sc_module)
              design
          with
          | Some m when defaults_kept m sc ->
              incr known_instances;
              let facts = facts_of m in
              Hashtbl.iter
                (fun name b ->
                  match (b, Verilog.Dataflow.known_bits facts name) with
                  | Sim.Runtime.Bvar v, Some (value, known)
                    when v.v_kind <> Sim.Runtime.NamedEvent ->
                      let words =
                        if v.v_array = None then [ v.v_value ]
                        else Array.to_list v.v_words
                      in
                      for i = 0 to Logic4.Packed.width known - 1 do
                        if Logic4.Packed.get known i = Logic4.Bit.V1 then
                          List.iter
                            (fun w ->
                              incr known_bits;
                              let want = Logic4.Packed.get value i
                              and got = Logic4.Packed.get w i in
                              if !ok && not (Logic4.Bit.equal want got) then begin
                                ok := false;
                                Printf.printf
                                  "FAIL known-bits %s: %s bit %d is %c, \
                                   Dataflow says %c\n%!"
                                  label v.v_name i (Logic4.Bit.to_char got)
                                  (Logic4.Bit.to_char want)
                              end)
                            words
                      done
                  | _ -> ())
                sc.sc_bindings
          | _ -> ())
        elab.st.scopes;
      !ok

(* The repair loop's candidate budgets (Evaluate.simulate_candidate). *)
let budgets (problem : Cirfix.Problem.t) =
  let cfg = Cirfix.Config.default in
  ( min cfg.max_sim_steps ((problem.golden_steps * 10) + 5_000),
    min cfg.max_sim_time ((problem.golden_end_time * 2) + 1_000) )

let trace_pair (p : Bench_suite.Projects.t) idx (tb : string) : bool =
  let spec = Bench_suite.Projects.spec p in
  let src = Bench_suite.Projects.design_source p ^ "\n" ^ tb in
  let design = Verilog.Parser.parse_design src in
  let label = Printf.sprintf "%s tb%d" p.name idx in
  let same = same_runs label design spec () in
  known_bits_run label design spec () && same

(* Mutant [m] of scenario [problem], under the candidate budgets the
   repair loop gives it (Evaluate.simulate_candidate). *)
let mutant_run (problem : Cirfix.Problem.t) label m : bool =
  let max_steps, max_time = budgets problem in
  let design = Cirfix.Problem.with_candidate problem m in
  let same = same_runs label design problem.spec ~max_steps ~max_time () in
  known_bits_run label design problem.spec ~max_steps ~max_time () && same

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
  (* Patch-local builds against cold full builds, scenario by scenario:
     the seed warms its base, then each mutant is built from it and
     compared with a deep copy of itself, which must be built in full. *)
  Printf.printf "== patch-local equivalence (%d rounds x %d scenarios)\n%!" n
    (List.length problems);
  Obs.Metrics.set_enabled true;
  let build_full = Obs.Metrics.counter "sim.build_full" in
  let copy (d : Verilog.Ast.design) : Verilog.Ast.design =
    Marshal.from_string (Marshal.to_string d []) 0
  in
  let local = ref 0 and full = ref 0 and derived = ref 0 in
  List.iter
    (fun ((d : Bench_suite.Defects.t), (problem : Cirfix.Problem.t), walk) ->
      let max_steps, max_time = budgets problem in
      let run design =
        Sim.Simulate.run ~max_steps ~max_time ~backend:Sim.Simulate.Auto design
          problem.spec
      in
      let seed =
        Cirfix.Problem.with_candidate problem
          (Cirfix.Problem.target_module problem)
      in
      ignore (run seed);
      (* The seed's own full build, for the schedule check. *)
      let base =
        match
          Sim.Elaborate.elaborate ~max_steps ~max_time seed
            ~top:problem.spec.top
        with
        | elab -> Some (elab, Schedule.compiled elab)
        | exception Sim.Runtime.Elab_error _ -> None
      in
      List.iteri
        (fun r (m, edit) ->
          let design = Cirfix.Problem.with_candidate problem m in
          let before = Obs.Metrics.value build_full in
          let warm = run design in
          if Obs.Metrics.value build_full > before then incr full else incr local;
          let label = Printf.sprintf "patch-local #%d.%d %s" d.id r edit in
          let fulls = Obs.Metrics.value build_full in
          let cold = run (copy design) in
          if Obs.Metrics.value build_full = fulls then begin
            Printf.printf "FAIL %s: the copy was not built in full\n%!" label;
            incr failures
          end
          else if not (same_results label warm cold) then incr failures;
          match base with
          | None -> ()
          | Some (base_elab, base_art) -> (
              match Sim.Elaborate.rebind base_elab ~base_design:seed design with
              | None -> ()
              | Some (elab, changed) ->
                  incr derived;
                  let derived =
                    Schedule.describe
                      (Result.map
                         (fun b -> Sim.Compile.derive b elab changed)
                         base_art)
                  in
                  let full =
                    Schedule.of_design ~max_steps ~max_time (copy design)
                      ~top:problem.spec.top
                  in
                  if not (String.equal derived full) then begin
                    Printf.printf
                      "FAIL %s: derived schedule differs\n\
                      \  derive:  %s\n\
                      \  compile: %s\n\
                       %!"
                      label derived full;
                    incr failures
                  end))
        walk)
    walks;
  Obs.Metrics.set_enabled false;
  Printf.printf "known-bits: %d instances, %d known bits checked\n%!"
    !known_instances !known_bits;
  Printf.printf
    "sim-equiv: %d trace pairs, %d scenarios, %d mutants, %d patch-local \
     (%d built in full), %d derived schedules, %d failures\n%!"
    !pairs !scored !mutants !local !full !derived !failures;
  if !local = 0 || !derived = 0 then begin
    Printf.printf "FAIL no mutant was built patch-locally\n%!";
    exit 1
  end;
  if !failures > 0 then exit 1
