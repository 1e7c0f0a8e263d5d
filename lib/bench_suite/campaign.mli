(** Corpus-wide campaign runner: all 32 defect scenarios x N seeds as
    independent repair jobs over the domain pool.

    Each job runs the GP engine single-threaded (parallelism comes from
    running jobs concurrently), under its scenario's wall/probe budget,
    with its own journal written via {!Obs.Journal.with_file} — so
    concurrent jobs never interleave records. As jobs complete, one line
    per job is appended to [out_dir]/manifest.jsonl (job spec, seed,
    outcome, wall, journal path): the manifest is append-only and every
    completed job survives a killed campaign. `cirfix dashboard` and
    {!Obs.Aggregate} read the tree back. *)

type job = { c_defect : Defects.t; c_seed : int }

type outcome =
  | Repaired
  | No_repair
  | Failed of string  (** the job raised; the message is recorded *)

type job_result = {
  r_job : job;
  r_outcome : outcome;
  r_correct : bool;  (** repaired AND passes the held-out validation bench *)
  r_edits : int option;  (** minimized patch size, when repaired *)
  r_probes : int;
  r_wall : float;  (** job wall seconds *)
  r_journal : string;  (** journal filename, relative to [out_dir] *)
}

val jobs : scenarios:Defects.t list -> seeds:int -> job list
(** The full job list: for each scenario, seeds [1..seeds]. *)

val quick_scenarios : unit -> Defects.t list
(** The `--quick` subset: a few fast-repairing scenarios, suitable for
    running under `dune runtest`. *)

val quick_config : Defects.t -> Cirfix.Config.t
(** Sharply reduced budgets (small population, few generations) for
    smoke-level sweeps. *)

val status_string : outcome -> string
(** "repaired" | "no_repair" | "error". *)

val aggregate : job_result list -> Obs.Aggregate.job list
(** The results as {!Obs.Aggregate} reads them back from the manifest, so
    in-process summaries and `cirfix dashboard` count the same way. *)

val run :
  ?config:(Defects.t -> Cirfix.Config.t) ->
  ?on_done:(done_:int -> total:int -> job_result -> unit) ->
  jobs:int ->
  out_dir:string ->
  job list ->
  job_result list
(** Run every job over a [jobs]-wide pool, writing journals and the
    manifest under [out_dir] (created if missing; the manifest is opened
    in append mode). [config] defaults to {!Runner.scenario_config};
    each job's seed and [jobs = 1] are forced on top of it. [on_done] is
    called after each job completes — serialized under the manifest
    lock, so it may safely drive a progress line. Results are returned
    in job-list order regardless of completion order. *)
