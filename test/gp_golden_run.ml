(* Repair-loop golden: [Gp.repair] over small defect scenarios under four
   configurations, printed so that any change to the mutant stream, the
   evaluator's accounting or the minimized winner shows up as a diff.

   Runs, in output order:
   - per seed (1, then 2), per configuration (default, no fault
     localization, no templates, two domains), per scenario (#2 #3 #4
     #11 #15, and i2c #18, where slicing engages):
     [Runner.scenario_config] with the probe budget cut to [max_probes];
   - then the heavy scenarios #25 and #28 at seed 1 under the unreduced
     [Runner.scenario_config].
   Every run lifts the wall budget out of reach, so its result depends
   only on its seed and configuration.

   For each run it prints the per-generation best/mean fitness and
   counters, then probes, lookups, memo hits, whether a repair was found,
   and the minimized patch.

   Usage: gp_golden_run [--all] [--expect FILE]
   The default prints the seed-1 block; --all prints everything. With
   --expect, the output must equal FILE (--all) or be a prefix of it
   (default), else the run fails naming the first differing line; only a
   one-line summary is printed then. Regenerate the fixture with
   [gp_golden_run --all > test/fixtures/gp-expected.txt]. *)

let scenarios = [ 2; 3; 4; 11; 15; 18 ]
let heavy = [ 25; 28 ]
let seeds = [ 1; 2 ]
let max_probes = 1000

let configs : (string * (Cirfix.Config.t -> Cirfix.Config.t)) list =
  [
    ("default", Fun.id);
    ("no-fault-loc", fun c -> { c with use_fault_loc = false });
    ("no-templates", fun c -> { c with use_templates = false });
    ("jobs2", fun c -> { c with jobs = 2 });
  ]

let run buf ~label (cfg : Cirfix.Config.t) (d : Bench_suite.Defects.t) =
  let r = Cirfix.Gp.repair cfg (Bench_suite.Defects.problem d) in
  Printf.bprintf buf "== #%d %s seed %d %s\n" d.id d.project cfg.seed label;
  List.iter
    (fun (g : Cirfix.Gp.generation_stats) ->
      Printf.bprintf buf
        "  gen %d best %.17g mean %.17g probes %d lookups %d memo_hits %d\n"
        g.gen g.best_fitness g.mean_fitness g.probes_so_far g.lookups_so_far
        g.memo_hits_so_far)
    r.generations;
  let get = Cirfix.Evaluate.get r.counters in
  Printf.bprintf buf "  probes %d lookups %d memo_hits %d repaired %b\n"
    (get Probes) (get Lookups) (get Memo_hits) (r.repaired <> None);
  Printf.bprintf buf "  patch %s\n"
    (match r.minimized with None -> "-" | Some p -> Cirfix.Patch.to_string p)

let base ?(probes = max_probes) (d : Bench_suite.Defects.t) seed =
  {
    (Bench_suite.Runner.scenario_config d) with
    seed;
    jobs = 1;
    max_probes = probes;
    max_wall_seconds = 1e9;
  }

let () =
  let all = Golden.all () in
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun seed ->
      if all || seed = List.hd seeds then
        List.iter
          (fun (label, tweak) ->
            List.iter
              (fun id ->
                let d = Bench_suite.Defects.find id in
                run buf ~label (tweak (base d seed)) d)
              scenarios)
          configs)
    seeds;
  if all then
    List.iter
      (fun id ->
        let d = Bench_suite.Defects.find id in
        let cfg = base ~probes:(Bench_suite.Runner.scenario_config d).max_probes d 1 in
        run buf ~label:"scenario-config" cfg d)
      heavy;
  Golden.finish ~name:"gp golden" (Buffer.contents buf)
