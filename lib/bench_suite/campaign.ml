(* Corpus campaign runner: scenarios x seeds as independent jobs over the
   domain pool. The parallel axis is jobs, not candidate evaluation —
   each job runs the GP engine with jobs = 1, so every job's journal is
   the same bytes a standalone `cirfix repair --journal` run would write
   (modulo the documented timing fields). Journals go through
   {!Obs.Journal.with_file}, which binds a sink to the worker domain
   running the job; the manifest is a single append-mode channel guarded
   by a mutex, flushed per line, so a killed campaign keeps every
   completed job on disk. *)

type job = { c_defect : Defects.t; c_seed : int }

type outcome = Repaired | No_repair | Failed of string

type job_result = {
  r_job : job;
  r_outcome : outcome;
  r_correct : bool;
  r_edits : int option;
  r_probes : int;
  r_wall : float;
  r_journal : string;
}

let jobs ~(scenarios : Defects.t list) ~(seeds : int) : job list =
  List.concat_map
    (fun d -> List.init (max 1 seeds) (fun i -> { c_defect = d; c_seed = i + 1 }))
    scenarios

(* Small, fast-repairing scenarios (the ones the test suite leans on):
   enough to exercise the whole campaign pipeline — manifest, journals,
   funnel, dashboard — in seconds under `dune runtest`. *)
let quick_scenarios () : Defects.t list =
  List.map Defects.find [ 3; 6 ]

let quick_config (d : Defects.t) : Cirfix.Config.t =
  {
    (Runner.scenario_config ~budget_scale:0.1 d) with
    pop_size = 40;
    max_generations = 4;
    max_probes = 600;
    max_wall_seconds = 10.0;
  }

let status_string = function
  | Repaired -> "repaired"
  | No_repair -> "no_repair"
  | Failed _ -> "error"

let journal_name (j : job) : string =
  Printf.sprintf "journal-%02d-s%d.jsonl" j.c_defect.Defects.id j.c_seed

let manifest_record (r : job_result) : Obs.Json.t =
  let d = r.r_job.c_defect in
  Obs.Json.Obj
    ([
       ("type", Obs.Json.Str "job");
       ("scenario", Obs.Json.Int d.Defects.id);
       ("project", Obs.Json.Str d.Defects.project);
       ("category", Obs.Json.Int d.Defects.category);
       ("seed", Obs.Json.Int r.r_job.c_seed);
       ("status", Obs.Json.Str (status_string r.r_outcome));
       ("correct", Obs.Json.Bool r.r_correct);
       ( "edits",
         match r.r_edits with
         | None -> Obs.Json.Null
         | Some e -> Obs.Json.Int e );
       ("probes", Obs.Json.Int r.r_probes);
       ("wall_s", Obs.Json.Float r.r_wall);
       ("journal", Obs.Json.Str r.r_journal);
     ]
    @
    match r.r_outcome with
    | Failed msg -> [ ("error", Obs.Json.Str msg) ]
    | _ -> [])

let aggregate (results : job_result list) : Obs.Aggregate.job list =
  Obs.Aggregate.jobs_of_manifest (List.map manifest_record results)

let run ?(config = fun d -> Runner.scenario_config d)
    ?(on_done = fun ~done_:_ ~total:_ _ -> ()) ~(jobs : int)
    ~(out_dir : string) (js : job list) : job_result list =
  (try Unix.mkdir out_dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let manifest =
    Out_channel.open_gen
      [ Open_wronly; Open_append; Open_creat; Open_text ]
      0o644
      (Filename.concat out_dir "manifest.jsonl")
  in
  let emit_line (v : Obs.Json.t) =
    Out_channel.output_string manifest (Obs.Json.to_string v);
    Out_channel.output_char manifest '\n';
    Out_channel.flush manifest
  in
  let total = List.length js in
  (* Campaign header: job-count and axes, no wall-clock fields — rerunning
     the same sweep appends an identical header. *)
  emit_line
    (Obs.Json.Obj
       [
         ("type", Obs.Json.Str "campaign");
         ("jobs", Obs.Json.Int total);
         ( "scenarios",
           Obs.Json.List
             (List.map (fun j -> j.c_defect.Defects.id) js
             |> List.sort_uniq compare
             |> List.map (fun id -> Obs.Json.Int id)) );
         ( "seeds",
           Obs.Json.List
             (List.map (fun j -> j.c_seed) js
             |> List.sort_uniq compare
             |> List.map (fun s -> Obs.Json.Int s)) );
       ]);
  let m = Mutex.create () in
  let completed = ref 0 in
  let run_one (j : job) : job_result =
    let d = j.c_defect in
    let cfg = { (config d) with Cirfix.Config.seed = j.c_seed; jobs = 1 } in
    let jfile = journal_name j in
    let t0 = Unix.gettimeofday () in
    let res =
      try
        let problem = Defects.problem d in
        Ok
          (Obs.Journal.with_file
             (Filename.concat out_dir jfile)
             (fun () -> Cirfix.Gp.repair cfg problem))
      with e -> Error (Printexc.to_string e)
    in
    let wall = Unix.gettimeofday () -. t0 in
    let outcome, correct, edits, probes =
      match res with
      | Error msg -> (Failed msg, false, None, 0)
      | Ok r -> (
          let probes = Cirfix.Evaluate.get r.Cirfix.Gp.counters Probes in
          match r.repaired_module with
          | None -> (No_repair, false, None, probes)
          | Some repaired ->
              ( Repaired,
                (try Defects.is_correct d repaired with _ -> false),
                Option.map List.length r.minimized,
                probes ))
    in
    let result =
      {
        r_job = j;
        r_outcome = outcome;
        r_correct = correct;
        r_edits = edits;
        r_probes = probes;
        r_wall = wall;
        r_journal = jfile;
      }
    in
    (* Manifest append + progress callback, serialized: lines never
       interleave, and [on_done] observes a consistent done-count. *)
    Mutex.lock m;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock m)
      (fun () ->
        emit_line (manifest_record result);
        incr completed;
        on_done ~done_:!completed ~total result);
    result
  in
  Fun.protect
    ~finally:(fun () -> Out_channel.close manifest)
    (fun () ->
      Cirfix.Pool.with_pool ~jobs @@ fun pool ->
      Cirfix.Pool.map_list pool run_one js)
