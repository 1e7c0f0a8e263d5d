(* Oracle-quality study on one scenario (paper RQ4 in miniature).

   The expected-behaviour information is the costly input to CirFix: this
   example thins the oracle of the counter's sensitivity-list defect from
   100% of sampled clock edges down to 50% and 25%, and reports how repair
   success and repair *quality* (validation against the held-out testbench)
   degrade.

     dune exec examples/oracle_sensitivity.exe *)

let () =
  let d = Bench_suite.Defects.find 3 in
  Printf.printf "scenario #%d: %s - %s\n\n" d.id d.project d.description;
  let problem = Bench_suite.Defects.problem d in
  let full = problem.oracle in
  List.iter
    (fun keep ->
      let oracle = Cirfix.Oracle.thin ~keep full in
      let thinned = { problem with oracle } in
      Printf.printf "oracle at %3.0f%% (%d of %d samples):\n"
        (100. *. Cirfix.Oracle.coverage ~full oracle)
        (Cirfix.Oracle.length oracle) (Cirfix.Oracle.length full);
      let cfg =
        {
          (Bench_suite.Runner.scenario_config d) with
          max_probes = 6000;
          max_wall_seconds = 45.0;
        }
      in
      let rec attempt seed =
        if seed > 3 then None
        else (
          let r = Cirfix.Gp.repair { cfg with seed } thinned in
          match r.repaired_module with
          | Some m -> Some (r, m)
          | None -> attempt (seed + 1))
      in
      (match attempt 1 with
      | None -> print_endline "  no plausible repair found"
      | Some (r, m) ->
          let correct = Bench_suite.Defects.is_correct d m in
          Printf.printf "  plausible repair in %d probes; validation bench: %s\n"
            r.probes
            (if correct then "PASSES (correct)" else "fails (overfits)");
          Printf.printf "  patch: %s\n"
            (Cirfix.Patch.to_string (Option.get r.minimized)));
      print_newline ())
    [ 1; 2; 4 ];
  print_endline
    "(The paper's RQ4 finding: plausible repairs barely drop as the oracle\n\
    \ thins, while the share that is fully correct erodes - the same shape\n\
    \ this miniature study shows.)"
