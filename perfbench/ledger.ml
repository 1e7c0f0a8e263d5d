(* The per-layer ledger, measured from outside the program in two ways:

   - direct calls into each layer's public functions, timed on a seeded
     sample of single-edit candidates drawn with [Mutate] from the
     workload's faulty designs;
   - the self time of the spans the program already emits, read from the
     existing [Obs.Trace] sink during a traced pass.

   Timings are nanoseconds per call unless the name says otherwise. *)

module C = Cirfix
module A = Verilog.Ast

(* --- Span self time --------------------------------------------------------- *)

type span = { name : string; ts : float; dur : float (* microseconds *) }

(* The "X" events of a rendered trace, grouped by thread. [Obs.Trace]
   renders one event per line, which keeps the parse small. *)
let spans_by_tid (doc : string) : (int, span list) Hashtbl.t =
  let tbl = Hashtbl.create 4 in
  String.split_on_char '\n' doc
  |> List.iter (fun line ->
         let line = String.trim line in
         let line =
           if String.ends_with ~suffix:"," line then
             String.sub line 0 (String.length line - 1)
           else line
         in
         match Obs.Json.parse line with
         | Error _ -> () (* the document's head and tail lines *)
         | Ok ev -> (
             let field k = Obs.Json.member k ev in
             match (field "ph", field "name", field "tid") with
             | Some (Obs.Json.Str "X"), Some (Obs.Json.Str name), Some (Obs.Json.Int tid)
               -> (
                 match
                   ( Option.bind (field "ts") Obs.Json.to_float_opt,
                     Option.bind (field "dur") Obs.Json.to_float_opt )
                 with
                 | Some ts, Some dur ->
                     let l = Option.value (Hashtbl.find_opt tbl tid) ~default:[] in
                     Hashtbl.replace tbl tid ({ name; ts; dur } :: l)
                 | _ -> ())
             | _ -> ()));
  tbl

(* Self time in seconds per span name: a span's duration minus the part its
   child spans on the same thread cover. *)
let self_seconds (doc : string) : (string, float) Hashtbl.t =
  let self = Hashtbl.create 16 in
  let add name us =
    Hashtbl.replace self name
      (Option.value (Hashtbl.find_opt self name) ~default:0. +. (us /. 1e6))
  in
  Hashtbl.iter
    (fun _ spans ->
      let spans =
        List.sort (fun a b -> compare (a.ts, -.a.dur) (b.ts, -.b.dur)) spans
      in
      let stack = ref [] in
      let close (s, kids) = add s.name (s.dur -. !kids) in
      List.iter
        (fun s ->
          let rec unwind () =
            match !stack with
            | ((top, _) as fr) :: rest when top.ts +. top.dur <= s.ts ->
                close fr;
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with (_, kids) :: _ -> kids := !kids +. s.dur | [] -> ());
          stack := (s, ref 0.) :: !stack)
        spans;
      List.iter close !stack)
    (spans_by_tid doc);
  self

(* The spans whose share of the traced wall the ledger reports. *)
let span_names =
  [
    "gp.propose"; "gp.select"; "evaluate"; "sim.elaborate"; "sim.run";
    "screen.static"; "eval.prepare_batch"; "gp.minimize";
  ]

(* --- Timing helpers ----------------------------------------------------------- *)

let now_ns = Obs.Clock.now_ns

(* Nanoseconds per item of [f] applied over [xs]: whole sweeps are repeated
   until at least 40 ms have elapsed. *)
let per_item (xs : 'a list) (f : 'a -> unit) : float =
  let n = List.length xs in
  if n = 0 then 0.
  else begin
    let reps = ref 0 and elapsed = ref 0 in
    while !elapsed < 40_000_000 do
      let t0 = now_ns () in
      List.iter f xs;
      elapsed := !elapsed + (now_ns () - t0);
      incr reps
    done;
    float_of_int !elapsed /. float_of_int (!reps * n)
  end

(* Nanoseconds spent in [f] alone, summed over [xs]; [prep] runs untimed
   before each call. One sweep. *)
let timed_sum (xs : 'a list) (prep : 'a -> 'b) (f : 'b -> unit) : int =
  List.fold_left
    (fun acc x ->
      let y = prep x in
      let t0 = now_ns () in
      f y;
      acc + (now_ns () - t0))
    0 xs

let ignore_exn f x = try ignore (f x) with _ -> ()

(* --- Candidate sample ----------------------------------------------------------- *)

type scenario = {
  problem : C.Problem.t;
  cfg : C.Config.t;
  source : string;  (** faulty design plus testbench, as parsed at set-up *)
  original : A.module_decl;
  mismatch : string list;
  fl_stmts : A.stmt list;
  edits : C.Patch.edit list;
  cands : A.module_decl list;  (** [Patch.apply original [e]], distinct *)
}

let per_scenario = 8

(* Draw [per_scenario] distinct single-edit candidates per scenario with
   [Mutate], seeded from the benchmark seed. Candidates on which a static
   lane raises are left out of the sample (and counted), so one pathological
   mutant cannot stop the ledger. *)
let sample ~(seed : int) (jobs : Workload.job list) : scenario list * int =
  let excluded = ref 0 in
  let seen_ids = Hashtbl.create 16 in
  let scenarios =
    List.filter_map
      (fun (j : Workload.job) ->
        if Hashtbl.mem seen_ids j.defect.id then None
        else begin
          Hashtbl.add seen_ids j.defect.id ();
          let p = j.problem and cfg = j.cfg in
          let original = C.Problem.target_module p in
          let ev = C.Evaluate.create cfg p in
          let seed_out = C.Evaluate.eval_module ev original in
          let mismatch =
            C.Fitness.mismatched_signals ~expected:p.oracle ~actual:seed_out.trace
          in
          let fl = C.Fault_loc.localize original ~mismatch in
          let fl_stmts =
            match C.Fault_loc.fl_statements original fl with
            | [] -> C.Fault_loc.all_statements original
            | l -> l
          in
          let rng = Random.State.make [| seed; j.defect.id |] in
          let hashes = Hashtbl.create 16 in
          let edits = ref [] and cands = ref [] in
          let tries = ref 0 in
          while List.length !cands < per_scenario && !tries < 50 * per_scenario do
            incr tries;
            match C.Mutate.mutate rng cfg original ~fl_stmts with
            | None -> ()
            | Some e -> (
                let m = C.Patch.apply original [ e ] in
                let h = Verilog.Ast_utils.structural_hash m in
                if not (Hashtbl.mem hashes h) then
                  match
                    ignore (Verilog.Canon.semantic_hash m);
                    ignore (Verilog.Dataflow.prune_hash m)
                  with
                  | () ->
                      Hashtbl.add hashes h ();
                      edits := e :: !edits;
                      cands := m :: !cands
                  | exception _ -> incr excluded)
          done;
          let d = j.defect in
          let proj = Bench_suite.Projects.find d.project in
          Some
            {
              problem = p;
              cfg;
              source =
                Bench_suite.Defects.inject d ^ "\n"
                ^ Bench_suite.Projects.tb_source proj;
              original;
              mismatch;
              fl_stmts;
              edits = List.rev !edits;
              cands = List.rev !cands;
            }
        end)
      jobs
  in
  (scenarios, !excluded)

(* --- Direct layer timings --------------------------------------------------------- *)

let all_cands scs = List.concat_map (fun s -> List.map (fun m -> (s, m)) s.cands) scs

(* Candidate budgets exactly as [Evaluate] scales them. *)
let budgets (s : scenario) =
  ( min s.cfg.max_sim_steps ((s.problem.golden_steps * 10) + 5_000),
    min s.cfg.max_sim_time ((s.problem.golden_end_time * 2) + 1_000) )

let elaborate (s : scenario) m =
  let max_steps, max_time = budgets s in
  Sim.Elaborate.elaborate ~max_steps ~max_time
    (C.Problem.with_candidate s.problem m)
    ~top:s.problem.spec.top

type sim_layer = {
  elaborate_ns : float;
  compile_ns : float;
  run_compiled_ns : float;
  run_event_ns : float;
  ns_per_edge : float;
}

let sim_layer (scs : scenario list) : sim_layer =
  (* Candidates that elaborate; the rest never reach the simulator. *)
  let ok =
    List.filter
      (fun (s, m) ->
        match elaborate s m with _ -> true | exception _ -> false)
      (all_cands scs)
  in
  let n = float_of_int (max 1 (List.length ok)) in
  let elab_ns = float_of_int (timed_sum ok Fun.id (fun (s, m) -> ignore (elaborate s m))) in
  let compile_ns =
    float_of_int
      (timed_sum ok (fun (s, m) -> elaborate s m) (fun e ->
           ignore_exn Sim.Compile.compile e))
  in
  let run_event_ns =
    float_of_int
      (timed_sum ok
         (fun (s, m) ->
           let e = elaborate s m in
           ignore
             (Sim.Recorder.attach e.st ~clock:s.problem.spec.clock
                ~instance_path:s.problem.spec.dut_path);
           e)
         (fun e -> ignore_exn Sim.Engine.run e))
  in
  (* Warm compiled runs: the first call fills the per-domain artifact cache,
     the second — timed — reuses the artifact. Designs the compiler rejects
     fall back to the event engine and are left out. *)
  let compiled = ref 0 and compiled_ns = ref 0 in
  let edge_ns = ref 0 and edges = ref 0 in
  List.iter
    (fun (s, m) ->
      let max_steps, max_time = budgets s in
      let design = C.Problem.with_candidate s.problem m in
      let go () =
        Sim.Simulate.run ~max_steps ~max_time ~backend:Sim.Simulate.Auto design
          s.problem.spec
      in
      ignore (go ());
      let t0 = now_ns () in
      let r = go () in
      let dt = now_ns () - t0 in
      match r with
      | Ok r ->
          edge_ns := !edge_ns + dt;
          edges := !edges + List.length r.trace;
          if r.backend_used = Sim.Simulate.Used_compiled then begin
            incr compiled;
            compiled_ns := !compiled_ns + dt
          end
      | Error _ -> ())
    ok;
  {
    elaborate_ns = elab_ns /. n;
    compile_ns = compile_ns /. n;
    run_compiled_ns =
      float_of_int !compiled_ns /. float_of_int (max 1 !compiled);
    run_event_ns = run_event_ns /. n;
    ns_per_edge = float_of_int !edge_ns /. float_of_int (max 1 !edges);
  }

type layers = {
  parse_ns : float;
  structural_hash_ns : float;
  screen_ns : float;
  semantic_hash_ns : float;
  prune_hash_ns : float;
  fault_loc_ns : float;
  mutate_ns : float;
  patch_apply_ns : float;
  eval_hit_ns : float;
  eval_miss_ns : float;
  fitness_ns : float;
  pool_task_ns : float;
  sim : sim_layer;
}

(* Per-task cost of handing a batch to a two-domain [Pool] rather than
   mapping it on the calling domain, for a task that does no work. *)
let pool_task_ns () : float =
  let xs = Array.init 256 Fun.id in
  let f x = x + 1 in
  C.Pool.with_pool ~jobs:2 @@ fun pool ->
  let reps = 400 in
  let time g =
    let t0 = now_ns () in
    for _ = 1 to reps do ignore (g ()) done;
    now_ns () - t0
  in
  let t_pool = time (fun () -> C.Pool.map pool f xs) in
  let t_map = time (fun () -> Array.map f xs) in
  float_of_int (t_pool - t_map) /. float_of_int (reps * Array.length xs)

let measure ~(seed : int) (scs : scenario list) : layers =
  let cands = all_cands scs in
  let mods = List.map snd cands in
  let parse_ns =
    per_item scs (fun s -> ignore (Verilog.Parser.parse_design s.source))
  in
  let structural_hash_ns =
    per_item mods (fun m -> ignore (Verilog.Ast_utils.structural_hash m))
  in
  let screen_ns =
    per_item cands (fun (s, m) ->
        ignore (Verilog.Analysis.screen ~checks:s.cfg.screen_checks m))
  in
  let semantic_hash_ns = per_item mods (fun m -> ignore (Verilog.Canon.semantic_hash m)) in
  let prune_hash_ns = per_item mods (fun m -> ignore (Verilog.Dataflow.prune_hash m)) in
  let fault_loc_ns =
    per_item cands (fun (s, m) -> ignore (C.Fault_loc.localize m ~mismatch:s.mismatch))
  in
  let rng = Random.State.make [| seed |] in
  let mutate_ns =
    per_item scs (fun s ->
        ignore (C.Mutate.mutate rng s.cfg s.original ~fl_stmts:s.fl_stmts))
  in
  let patch_apply_ns =
    per_item
      (List.concat_map (fun s -> List.map (fun e -> (s, e)) s.edits) scs)
      (fun (s, e) -> ignore (C.Patch.apply s.original [ e ]))
  in
  (* A fresh evaluator per scenario: the first lookup of each candidate is a
     miss (lanes, screen, simulation, fitness), the second a memo hit. *)
  let evs = List.map (fun s -> (s, C.Evaluate.create s.cfg s.problem)) scs in
  let miss_ns = ref 0 and misses = ref 0 in
  let traces = ref [] in
  List.iter
    (fun (s, ev) ->
      List.iter
        (fun m ->
          let t0 = now_ns () in
          let o = C.Evaluate.eval_module ev m in
          miss_ns := !miss_ns + (now_ns () - t0);
          incr misses;
          if o.trace <> [] then traces := (s, o.trace) :: !traces)
        s.cands)
    evs;
  let eval_hit_ns =
    per_item
      (List.concat_map (fun (s, ev) -> List.map (fun m -> (ev, m)) s.cands) evs)
      (fun (ev, m) -> ignore (C.Evaluate.eval_module ev m))
  in
  let fitness_ns =
    per_item !traces (fun (s, tr) ->
        ignore
          (C.Fitness.fitness ~phi:s.cfg.phi ~expected:s.problem.oracle ~actual:tr))
  in
  {
    parse_ns;
    structural_hash_ns;
    screen_ns;
    semantic_hash_ns;
    prune_hash_ns;
    fault_loc_ns;
    mutate_ns;
    patch_apply_ns;
    eval_hit_ns;
    eval_miss_ns = float_of_int !miss_ns /. float_of_int (max 1 !misses);
    fitness_ns;
    pool_task_ns = pool_task_ns ();
    sim = sim_layer scs;
  }

(* Share of [wall] that the layers account for: direct per-call costs times
   the call counts the passes report. Each proposal is mutated, localized
   (one [Patch.apply] of its parent) and materialized (a second); each
   lookup is a memo hit or a miss. *)
let coverage (l : layers) (results : C.Gp.result list) ~(wall : float) : float =
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 results) in
  let mutants = sum (fun (r : C.Gp.result) -> r.mutants_generated) in
  let hits = sum (fun r -> r.memo_hits) in
  let misses = sum (fun r -> r.lookups - r.memo_hits) in
  let ns =
    (mutants *. (l.mutate_ns +. l.fault_loc_ns +. (2. *. l.patch_apply_ns)))
    +. (hits *. l.eval_hit_ns) +. (misses *. l.eval_miss_ns)
  in
  ns /. 1e9 /. wall
