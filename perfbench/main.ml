(* Repair-loop benchmark: time-to-repair and throughput of [Gp.repair] on
   fixed GP workloads, plus a per-layer ledger from a separate traced pass.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --smoke

   With --trace 0 the run times the workload's set-up repeatedly (the
   median is [setup_s]), then runs at least three untraced passes over the
   job list, more while they fit in S seconds, and sums each job's median
   time over the passes. Gated times are rescaled to a reference host
   speed with the probe in [Calib]; the raw times print beside them
   ([*_raw_s]). With --trace 1 it runs one untraced and one traced
   pass, times each layer directly, and reports the per-layer ledger; S is
   not used. Either way every pass must reproduce the same job
   fingerprints, and every reported repair is re-verified from outside the
   loop. Standard output carries a report of every metric, including those
   BENCHMARK.json does not list, and ends with one JSON line: correct,
   attempted, failed, and the listed metrics.

   --smoke runs one job per workload through both modes and checks that
   every metric named in BENCHMARK.json prints with its unit, and that a
   perturbed fingerprint is rejected. *)

type metric = { name : string; value : float; unit : string }

let median l = Cirfix.Stats.median l

(* --- Set-up -------------------------------------------------------------- *)

(* Seconds of [Workload.problems], timed at least [reps] times and until
   [budget] seconds have been spent; and the problems of the last one.
   Set-up takes milliseconds, so a run samples it before its first pass and
   again after every pass: the reported median then spans the whole run, not
   one burst of host load at its start. *)
let setup_times (w : Workload.t) ~(reps : int) ~(budget : float) =
  let rec go k spent times =
    let t0 = Unix.gettimeofday () in
    let probs = Workload.problems w in
    let dt = Unix.gettimeofday () -. t0 in
    let times = dt :: times and spent = spent +. dt in
    if k <= 1 && spent >= budget then (times, probs) else go (k - 1) spent times
  in
  go reps 0. []

(* --- Checks -------------------------------------------------------------- *)

let pin_file (w : Workload.t) = Filename.concat "perfbench/pins" (w.name ^ ".txt")

(* The seed the committed pins were recorded at. *)
let pinned_seed = 1

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

(* Problems with a set of passes over the same jobs: fingerprints must agree
   across passes (and with the committed pins at the pinned seed), and the
   first pass must survive the outside re-verification. *)
let check (w : Workload.t) ~(seed : int) ~(pin : bool) (passes : Workload.pass list)
    : string list =
  match passes with
  | [] -> [ "no pass ran" ]
  | first :: rest ->
      let fp (p : Workload.pass) = List.map Workload.fingerprint p.runs in
      let expected = fp first in
      let across =
        List.concat_map
          (fun p -> Workload.fingerprint_diff ~expected ~actual:(fp p))
          rest
      in
      let pinned =
        if pin && seed = pinned_seed && Sys.file_exists (pin_file w) then
          Workload.fingerprint_diff ~expected:(read_lines (pin_file w))
            ~actual:expected
        else []
      in
      across @ pinned @ Workload.verify first

(* --- End-to-end metrics ------------------------------------------------------ *)

(* Nearest-rank percentile among a fixed ladder: the highest one with at
   least ten samples beyond it, as (percentile, value, samples beyond). *)
let tail (xs : float list) : (float * float * int) option =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  List.find_map
    (fun p ->
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      if rank >= 1 && n - rank >= 10 then Some (p, a.(rank - 1), n - rank)
      else None)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]

(* Peak resident set of this process, from the kernel's high-water mark. *)
let peak_rss_mb () : float =
  match
    read_lines "/proc/self/status"
    |> List.find_opt (String.starts_with ~prefix:"VmHWM:")
  with
  | Some l -> (
      match String.split_on_char ' ' l |> List.filter (( <> ) "") with
      | [ _; kb; _ ] -> float_of_string kb /. 1024.
      | _ -> 0.)
  | None | (exception Sys_error _) -> 0.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Factor rescaling a pass's times to the reference host speed. *)
let scale (p : Workload.pass) = Calib.nominal /. p.probe

(* One job over every pass: the passes repeat the same jobs with the same
   results (the fingerprint check enforces it), so a job's wall and CPU time
   are taken as medians over passes, which filters a burst of host load that
   hit one pass. [wall] and [cpu] are rescaled to the reference host speed
   pass by pass; the raw medians are kept for the report. *)
type job_times = {
  run : Workload.run;
  wall : float;
  cpu : float;
  wall_raw : float;
  cpu_raw : float;
}

let job_times (passes : Workload.pass list) : job_times list =
  match passes with
  | [] -> []
  | first :: _ ->
      List.mapi
        (fun i (run : Workload.run) ->
          let at f =
            median (List.map (fun (p : Workload.pass) -> f p (List.nth p.runs i)) passes)
          in
          {
            run;
            wall = at (fun p r -> r.wall *. scale p);
            cpu = at (fun p r -> r.cpu *. scale p);
            wall_raw = at (fun _ r -> r.wall);
            cpu_raw = at (fun _ r -> r.cpu);
          })
        first.runs

let repaired (j : job_times) =
  match j.run.outcome with Ok g -> g.minimized <> None | Error _ -> false

(* End-to-end metrics over the jobs; [correct] counts the repairs that pass
   the held-out validation bench. *)
let e2e_metrics (js : job_times list) ~(correct : int) : metric list =
  let total f = List.fold_left (fun a j -> a +. f j) 0. js in
  let wall = total (fun j -> j.wall) and cpu = total (fun j -> j.cpu) in
  let probes =
    List.fold_left
      (fun a j -> match j.run.outcome with Ok g -> a + g.probes | Error _ -> a)
      0 js
  in
  let ttr = List.map (fun j -> j.wall) (List.filter repaired js) in
  let n = List.length js and n_rep = List.length ttr in
  let failed = List.length (List.filter (fun j -> Result.is_error j.run.outcome) js) in
  [
    { name = "wall_s"; value = wall; unit = "s" };
    { name = "wall_raw_s"; value = total (fun j -> j.wall_raw); unit = "s" };
    { name = "cpu_s"; value = cpu; unit = "s" };
    { name = "cpu_raw_s"; value = total (fun j -> j.cpu_raw); unit = "s" };
    { name = "sims_per_s"; value = float_of_int probes /. wall; unit = "1/s" };
    { name = "repairs_per_cpu_s"; value = float_of_int n_rep /. cpu; unit = "1/s" };
    { name = "ttr_p50_s"; value = (if ttr = [] then 0. else median ttr); unit = "s" };
    { name = "repair_rate"; value = ratio n_rep n; unit = "ratio" };
    { name = "correct_rate"; value = ratio correct n; unit = "ratio" };
    { name = "fail_rate"; value = ratio failed n; unit = "ratio" };
  ]
  @
  match tail ttr with
  | Some (_, v, _) -> [ { name = "ttr_tail_s"; value = v; unit = "s" } ]
  | None -> []

type outcome = {
  metrics : metric list;
  notes : string list;  (** printed beside the metrics, not reported *)
  fingerprints : string list;  (** of the first pass, one line per job *)
  problems : string list;
  attempted : int;
  failed : int;
}

let count_failed (passes : Workload.pass list) =
  List.fold_left
    (fun a (p : Workload.pass) ->
      a + List.length p.runs - List.length (Workload.results p))
    0 passes

(* The smoke test runs one job per workload and samples set-up once. *)
let jobs_and_setups (w : Workload.t) ~seed ~smoke =
  let times, problems =
    setup_times w ~reps:(if smoke then 1 else 9) ~budget:(if smoke then 0. else 0.5)
  in
  let jobs = Workload.jobs w problems ~seed in
  ((if smoke then [ List.hd jobs ] else jobs), times)

let end_to_end (w : Workload.t) ~seed ~seconds ~smoke : outcome =
  let t_start = Unix.gettimeofday () in
  let jobs, times = jobs_and_setups w ~seed ~smoke in
  (* Set-up times as (raw, rescaled), each rescaled by the probe of the pass
     next to it. *)
  let setups = ref [] and pending = ref times in
  (* Passes over the same jobs: at least three (one when smoke testing), so
     each job's median is taken over three timings, then more while the
     next one fits in the requested seconds. *)
  let min_passes = if smoke then 1 else 3 in
  let rec passes acc =
    let p = Workload.run_pass jobs in
    let after = if smoke then [] else fst (setup_times w ~reps:3 ~budget:0.2) in
    setups := List.map (fun t -> (t, t *. scale p)) (!pending @ after) @ !setups;
    pending := [];
    let acc = p :: acc in
    if List.length acc < min_passes
       || Unix.gettimeofday () -. t_start +. p.wall <= seconds
    then passes acc
    else List.rev acc
  in
  let passes = passes [] in
  let setup_s = median (List.map snd !setups) in
  let first = List.hd passes in
  let correct =
    List.length
      (List.filter
         (fun (r : Workload.run) ->
           match r.outcome with
           | Ok { repaired_module = Some m; _ } ->
               Bench_suite.Defects.is_correct r.job.defect m
           | _ -> false)
         first.runs)
  in
  let js = job_times passes in
  let repaired_walls = List.map (fun j -> j.wall) (List.filter repaired js) in
  {
    metrics =
      [
        { name = "setup_s"; value = setup_s; unit = "s" };
        { name = "setup_raw_s"; value = median (List.map fst !setups); unit = "s" };
      ]
      @ e2e_metrics js ~correct
      @ [
          { name = "peak_rss_mb"; value = peak_rss_mb (); unit = "MB" };
          {
            name = "host.probe_ratio";
            value = median (List.map (fun (p : Workload.pass) -> p.probe) passes) /. Calib.nominal;
            unit = "ratio";
          };
        ];
    notes =
      [
        Printf.sprintf "passes=%d jobs/pass=%d set-ups=%d pass walls: %s"
          (List.length passes) (List.length jobs) (List.length !setups)
          (String.concat " "
             (List.map (fun (p : Workload.pass) -> Printf.sprintf "%.3f" p.wall) passes));
        (match tail repaired_walls with
        | Some (p, _, beyond) ->
            Printf.sprintf "ttr_tail_s is p%g of %d repaired jobs, %d beyond it" p
              (List.length repaired_walls) beyond
        | None ->
            Printf.sprintf
              "ttr_tail_s omitted: %d repaired jobs, fewer than 10 beyond p50"
              (List.length repaired_walls));
      ];
    fingerprints = List.map Workload.fingerprint first.runs;
    problems = check w ~seed ~pin:(not smoke) passes;
    attempted = List.length jobs * List.length passes;
    failed = count_failed passes;
  }

(* --- Per-layer ledger ----------------------------------------------------------- *)

let sum_results f (rs : Cirfix.Gp.result list) =
  List.fold_left (fun a r -> a + f r) 0 rs

let per_layer (w : Workload.t) ~seed ~smoke : outcome =
  let jobs, times = jobs_and_setups w ~seed ~smoke in
  let setup_s = median times in
  let plain = Workload.run_pass jobs in
  Obs.Trace.start ();
  let traced = Workload.run_pass jobs in
  let doc = Option.value (Obs.Trace.stop ()) ~default:"" in
  let self = Ledger.self_seconds doc in
  let scs, excluded = Ledger.sample ~seed jobs in
  let l = Ledger.measure ~seed scs in
  let rs = Workload.results plain in
  let lookups = sum_results (fun r -> r.lookups) rs in
  let sims = sum_results (fun r -> r.sims_event + r.sims_compiled) rs in
  let sim_seconds =
    List.fold_left
      (fun a (r : Cirfix.Gp.result) -> a +. r.sim_seconds_event +. r.sim_seconds_compiled)
      0. rs
  in
  let lane_seconds =
    List.fold_left (fun a (r : Cirfix.Gp.result) -> a +. r.lane_seconds) 0. rs
  in
  let ns name value = { name; value; unit = "ns" } in
  let share name =
    {
      name = "span." ^ name ^ "_share";
      value = Option.value (Hashtbl.find_opt self name) ~default:0. /. traced.wall;
      unit = "ratio";
    }
  in
  let r name value = { name; value; unit = "ratio" } in
  {
    metrics =
      [
        {
          name = "bench_suite.problem_s";
          value = setup_s /. float_of_int (List.length w.scenarios);
          unit = "s";
        };
        ns "verilog.parse_ns" l.parse_ns;
        ns "verilog.structural_hash_ns" l.structural_hash_ns;
        ns "verilog.screen_ns" l.screen_ns;
        ns "verilog.semantic_hash_ns" l.semantic_hash_ns;
        ns "verilog.prune_hash_ns" l.prune_hash_ns;
        ns "cirfix.fault_loc_ns" l.fault_loc_ns;
        ns "cirfix.mutate_ns" l.mutate_ns;
        ns "cirfix.patch_apply_ns" l.patch_apply_ns;
        ns "cirfix.eval_hit_ns" l.eval_hit_ns;
        ns "cirfix.eval_miss_ns" l.eval_miss_ns;
        ns "cirfix.fitness_ns" l.fitness_ns;
        r "cirfix.memo_hit_ratio" (ratio (sum_results (fun r -> r.memo_hits) rs) lookups);
        r "cirfix.sim_ratio" (ratio (sum_results (fun r -> r.probes) rs) lookups);
        r "cirfix.pruned_ratio"
          (ratio
             (sum_results (fun r -> r.memo_hits + r.semantic_hits + r.dead_edit_skips) rs)
             lookups);
        r "cirfix.lane_share" (lane_seconds /. plain.wall);
        r "cirfix.sim_share" (sim_seconds /. plain.wall);
        ns "cirfix.pool_task_ns" l.pool_task_ns;
        r "cirfix.cpu_per_wall"
          (List.fold_left (fun a (x : Workload.run) -> a +. x.cpu) 0. plain.runs
          /. plain.wall);
        ns "sim.elaborate_ns" l.sim.elaborate_ns;
        ns "sim.compile_ns" l.sim.compile_ns;
        ns "sim.run_compiled_ns" l.sim.run_compiled_ns;
        ns "sim.run_event_ns" l.sim.run_event_ns;
        ns "sim.ns_per_edge" l.sim.ns_per_edge;
        r "sim.fallback_ratio" (ratio (sum_results (fun r -> r.compiled_fallbacks) rs) sims);
      ]
      @ List.map share Ledger.span_names
      @ [
          r "obs.trace_overhead" ((traced.wall /. plain.wall) -. 1.);
          r "layer.coverage" (Ledger.coverage l rs ~wall:plain.wall);
        ];
    notes =
      [
        Printf.sprintf "untraced wall %.3f s, traced wall %.3f s, jobs/pass=%d"
          plain.wall traced.wall (List.length jobs);
        Printf.sprintf "ledger sample: %d candidates over %d scenarios (%d excluded: a lane raised)"
          (List.length (Ledger.all_cands scs)) (List.length scs) excluded;
      ];
    fingerprints = List.map Workload.fingerprint plain.runs;
    problems = check w ~seed ~pin:(not smoke) [ plain; traced ];
    attempted = 2 * List.length jobs;
    failed = count_failed [ plain; traced ];
  }

(* --- Output --------------------------------------------------------------------------- *)

let json_line (o : outcome) : string =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool (o.problems = []));
         ("attempted", Obs.Json.Int o.attempted);
         ("failed", Obs.Json.Int o.failed);
         ( "metrics",
           Obs.Json.Obj
             (List.map
                (fun m ->
                  ( m.name,
                    Obs.Json.Obj
                      [ ("value", Obs.Json.Float m.value); ("unit", Obs.Json.Str m.unit) ]
                  ))
                o.metrics) );
       ])

let print_report (title : string) (o : outcome) =
  Printf.printf "%s\n" title;
  List.iter (fun n -> Printf.printf "  # %s\n" n) o.notes;
  List.iter (fun m -> Printf.printf "  %-32s %14.6f %s\n" m.name m.value m.unit) o.metrics;
  List.iter (fun f -> Printf.printf "  = %s\n" f) o.fingerprints;
  List.iter (fun p -> Printf.printf "  ! %s\n" p) o.problems;
  Printf.printf "%!"

(* Only the metrics BENCHMARK.json lists go into the result line; the
   report above it prints them all. *)
let declared (section : string) : (string * string) list =
  match
    Obs.Json.parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all)
  with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok j -> (
      match Obs.Json.member section j with
      | Some (Obs.Json.List l) ->
          List.filter_map
            (fun m ->
              match (Obs.Json.member "name" m, Obs.Json.member "unit" m) with
              | Some (Obs.Json.Str n), Some (Obs.Json.Str u) -> Some (n, u)
              | _ -> None)
            l
      | _ -> failwith ("BENCHMARK.json: no " ^ section))

(* Declared metrics missing from [o] or printed with another unit. *)
let missing (decl : (string * string) list) (o : outcome) : string list =
  List.filter_map
    (fun (n, u) ->
      match List.find_opt (fun m -> m.name = n) o.metrics with
      | Some m when m.unit = u -> None
      | Some m -> Some (Printf.sprintf "%s printed in %s, declared in %s" n m.unit u)
      | None -> Some (n ^ " not printed"))
    decl

let restrict decl (o : outcome) =
  { o with metrics = List.filter (fun m -> List.mem_assoc m.name decl) o.metrics }

(* --- Smoke test ------------------------------------------------------------------- *)

let smoke () =
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  let problems =
    List.concat_map
      (fun (w : Workload.t) ->
        let a = end_to_end w ~seed:1 ~seconds:0. ~smoke:true in
        print_report (w.name ^ " (smoke, end-to-end)") a;
        let b = per_layer w ~seed:1 ~smoke:true in
        print_report (w.name ^ " (smoke, per-layer)") b;
        List.map (fun p -> w.name ^ ": " ^ p)
          (a.problems @ b.problems @ missing e2e a @ missing layers b))
      Workload.all
  in
  (* A fingerprint that differs in one probe count must be rejected. *)
  let perturbed =
    let fp = "#1 seed=1 probes=10 lookups=20 repaired=true patch=-" in
    Workload.fingerprint_diff ~expected:[ fp ]
      ~actual:[ "#1 seed=1 probes=11 lookups=20 repaired=true patch=-" ]
  in
  let problems =
    problems @ if perturbed = [] then [ "a perturbed fingerprint was accepted" ] else []
  in
  List.iter (fun p -> Printf.printf "FAIL %s\n" p) problems;
  Printf.printf "smoke: %s\n" (if problems = [] then "ok" else "FAILED");
  exit (if problems = [] then 0 else 1)

(* --- Command line --------------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  let smoke_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N benchmark seed (job seeds derive from it)");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke_mode, " run the smoke test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 | --smoke";
  if !smoke_mode then smoke ();
  match Workload.find !workload with
  | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
      exit 2
  | Some w ->
      let seed = !seed in
      let title = Printf.sprintf "%s seed=%d trace=%d" w.name seed !trace in
      let section, o =
        if !trace = 0 then
          ( "end_to_end",
            end_to_end w ~seed ~seconds:(float_of_int !seconds) ~smoke:false )
        else ("per_layer", per_layer w ~seed ~smoke:false)
      in
      print_report title o;
      let decl = declared section in
      let o = { o with problems = o.problems @ missing decl o } in
      print_endline (json_line (restrict decl o))
