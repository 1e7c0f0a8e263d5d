(* Trial orchestration for the evaluation harness: run CirFix on a defect
   scenario for up to N independent seeded trials (the paper runs 5),
   stopping at the first plausible repair, then classify the repair as
   correct vs. testbench-overfitting on the held-out validation bench.

   Trials are independent (each derives its RNG from its seed), so a
   domain pool can score them speculatively in parallel; the summary is
   then folded in seed order, replaying the sequential stop-at-first-repair
   accounting, which makes it identical to a sequential run. *)

type trial_summary = {
  defect : Defects.t;
  repaired : bool;
  correct : bool; (* plausible and passes the validation testbench *)
  seconds : float; (* wall time of the successful trial (or total) *)
  total_seconds : float; (* across all trials run *)
  counters : Cirfix.Evaluate.counters; (* summed across all trials run *)
  winning_seed : int option;
  patch : Cirfix.Patch.t option;
  repaired_module : Verilog.Ast.module_decl option;
  initial_fitness : float;
}

(* Fold per-seed results (seed order) into the summary, stopping at the
   first plausible repair as the sequential driver does: only the trials up
   to and including it are counted. *)
let summarize (d : Defects.t) (results : Cirfix.Gp.result list) :
    trial_summary =
  let repair_of (r : Cirfix.Gp.result) =
    match (r.minimized, r.repaired_module) with
    | Some patch, Some m -> Some (patch, m)
    | _ -> None
  in
  let rec upto_repair = function
    | [] -> []
    | r :: rest -> if repair_of r <> None then [ r ] else r :: upto_repair rest
  in
  let run = upto_repair results in
  let total_seconds =
    List.fold_left
      (fun acc (r : Cirfix.Gp.result) -> acc +. r.wall_seconds)
      0. run
  in
  let unrepaired =
    {
      defect = d;
      repaired = false;
      correct = false;
      seconds = total_seconds;
      total_seconds;
      counters =
        List.fold_left
          (fun acc (r : Cirfix.Gp.result) -> Cirfix.Evaluate.add acc r.counters)
          Cirfix.Evaluate.zero run;
      winning_seed = None;
      patch = None;
      repaired_module = None;
      initial_fitness = 0.;
    }
  in
  match List.rev run with
  | [] -> unrepaired
  | last :: _ -> (
      let s = { unrepaired with initial_fitness = last.initial_fitness } in
      match repair_of last with
      | None -> s
      | Some (patch, m) ->
          let seed = List.length run in
          {
            s with
            repaired = true;
            correct = Defects.is_correct d m;
            seconds = last.wall_seconds;
            winning_seed = Some seed;
            patch = Some patch;
            repaired_module = Some m;
          })

(* [pool]: when given (and wider than one domain), all [trials] seeds run
   speculatively in parallel — each trial forced to jobs=1 so the pool is
   not oversubscribed — and the fold above discards the trials a
   sequential run would never have started. Without a pool, trials run
   sequentially, stopping at the first repair; each trial then uses
   [cfg.jobs] domains internally. *)
let run_defect ?(cfg = Cirfix.Config.default) ?(trials = 5)
    ?(on_trial : (int -> unit) option) ?(pool : Cirfix.Pool.t option)
    (d : Defects.t) : trial_summary =
  let problem = Defects.problem d in
  (* One seeded trial, under a trace span when tracing. *)
  let trial (cfg : Cirfix.Config.t) seed =
    let t = if Obs.Trace.enabled () then Obs.Trace.begin_ () else 0 in
    let r = Cirfix.Gp.repair { cfg with seed } problem in
    if Obs.Trace.enabled () then
      Obs.Trace.complete ~cat:"bench"
        ~args:[ ("seed", Obs.Json.Int seed) ]
        ~name:"trial" t;
    r
  in
  match pool with
  | Some pool when Cirfix.Pool.size pool > 1 && trials > 1 ->
      let seeds = Array.init trials (fun i -> i + 1) in
      Array.iter (fun s -> Option.iter (fun f -> f s) on_trial) seeds;
      let results = Cirfix.Pool.map pool (trial { cfg with jobs = 1 }) seeds in
      summarize d (Array.to_list results)
  | _ ->
      let rec go seed acc =
        if seed > trials then summarize d (List.rev acc)
        else (
          Option.iter (fun f -> f seed) on_trial;
          let r = trial cfg seed in
          if r.minimized <> None then summarize d (List.rev (r :: acc))
          else go (seed + 1) (r :: acc))
      in
      go 1 []

(* Resource presets: larger projects get a longer leash, mirroring the
   paper's uniform 12-hour bound scaled to our in-process simulator. *)
let scenario_config ?(budget_scale = 1.0) (d : Defects.t) : Cirfix.Config.t =
  let base = Cirfix.Config.default in
  let heavy =
    match d.project with
    | "reed_solomon_decoder" | "tate_pairing" -> true
    | _ -> false
  in
  {
    base with
    (* A wide first generation matters: generation 1 sweeps single edits
       around the original (the paper runs popSize = 5000). Duplicate
       candidates hit the evaluation cache, so large populations are cheap
       on small designs. *)
    pop_size = (if heavy then 120 else 500);
    max_generations = 12;
    max_probes =
      int_of_float (budget_scale *. float_of_int (if heavy then 2_500 else 10_000));
    max_wall_seconds = budget_scale *. (if heavy then 120.0 else 60.0);
  }
