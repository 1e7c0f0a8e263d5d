(* Differential gate for the static pruning lanes: repair the given
   benchmark defect scenarios with [check_pruning] enabled, so every
   semantic-lane fold and dead-edit skip is simulated anyway and its
   served fitness asserted equal to the simulator's. Any mismatch raises
   inside [Evaluate] and fails the run; a clean exit means the lanes
   proved only true equivalences on these scenarios.

   Usage: check_pruning_run [--scale S] [--synthetic] (--all | ID...)
   [--scale] multiplies the per-scenario probe/wall budgets (default
   0.05: a smoke-sized slice of the paper's budget). [--synthetic]
   additionally repairs the counter scenario with dead code injected
   into the faulty design — an unread debug register and an if (1'b0)
   branch — which is what makes mutants land in the dead-edit lane;
   the run fails unless that lane actually fired. *)

let () =
  let scale = ref 0.05 in
  let ids = ref [] in
  let all = ref false in
  let synthetic = ref false in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        scale := float_of_string v;
        parse rest
    | "--all" :: rest ->
        all := true;
        parse rest
    | "--synthetic" :: rest ->
        synthetic := true;
        parse rest
    | id :: rest ->
        ids := int_of_string id :: !ids;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !synthetic then begin
    let cfg =
      {
        Cirfix.Config.default with
        check_pruning = true;
        jobs = 1;
        pop_size = 200;
        max_generations = 4;
        max_probes = 2_000;
        (* dead code is never executed, so fault localization would never
           pick it as a mutation target; disable it so the dead-edit lane
           is actually exercised *)
        use_fault_loc = false;
      }
    in
    let r = Cirfix.Gp.repair cfg (Dead_code.problem ()) in
    let get = Cirfix.Evaluate.get r.counters in
    Printf.printf
      "synthetic dead-code counter   probes %5d semantic_hits %4d dead_edit_skips %4d\n%!"
      (get Probes) (get Semantic_hits) (get Dead_edit_skips);
    if get Dead_edit_skips = 0 then (
      print_endline "synthetic scenario never exercised the dead-edit lane";
      exit 1)
  end;
  let scenarios =
    if !all then Bench_suite.Defects.all
    else List.rev_map Bench_suite.Defects.find !ids
  in
  let mismatches = ref 0 in
  List.iter
    (fun (d : Bench_suite.Defects.t) ->
      let cfg =
        let base = Bench_suite.Runner.scenario_config ~budget_scale:!scale d in
        { base with Cirfix.Config.check_pruning = true; jobs = 1 }
      in
      let problem = Bench_suite.Defects.problem d in
      match Cirfix.Gp.repair cfg problem with
      | r ->
          let get = Cirfix.Evaluate.get r.counters in
          Printf.printf
            "defect %2d %-20s probes %5d semantic_hits %4d dead_edit_skips %4d\n%!"
            d.id d.project (get Probes) (get Semantic_hits)
            (get Dead_edit_skips)
      | exception Failure msg when String.length msg >= 13
                                   && String.sub msg 0 13 = "check-pruning" ->
          incr mismatches;
          Printf.printf "defect %2d %-20s MISMATCH: %s\n%!" d.id d.project msg)
    scenarios;
  if !mismatches > 0 then (
    Printf.printf "%d scenario(s) with fitness mismatches\n%!" !mismatches;
    exit 1)
  else Printf.printf "0 fitness mismatches across %d scenario(s)\n%!"
      (List.length scenarios)
