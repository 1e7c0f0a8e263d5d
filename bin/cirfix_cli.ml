(* The cirfix command-line tool.

     cirfix simulate  --design d.v --testbench tb.v --top tb --clock tb.clk --dut tb.dut
     cirfix oracle    --design golden.v --testbench tb.v ...      > oracle.csv
     cirfix localize  --design faulty.v --golden golden.v --testbench tb.v ...
     cirfix repair    --design faulty.v --golden golden.v --testbench tb.v ... [GP flags]
     cirfix scenarios [--id N] [--dump-faulty]

   Mirrors the paper artifact's repair.py driver, with the benchmark suite
   built in. *)

open Cmdliner

let read_file path =
  try Ok (In_channel.with_open_text path In_channel.input_all)
  with Sys_error e -> Error e

let or_die = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 1

(* --- Common options ------------------------------------------------------ *)

let design_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "design"; "d" ] ~docv:"FILE" ~doc:"Verilog design under test.")

let golden_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "golden"; "g" ] ~docv:"FILE"
        ~doc:"Previously-functioning (golden) version of the design, used to\n\
              derive the expected-behaviour oracle.")

let testbench_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "testbench"; "t" ] ~docv:"FILE" ~doc:"Testbench source.")

let top_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "top" ] ~docv:"MODULE" ~doc:"Top (testbench) module to elaborate.")

let clock_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "clock" ] ~docv:"PATH"
        ~doc:"Qualified clock signal, e.g. counter_tb.clk.")

let dut_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dut" ] ~docv:"PATH"
        ~doc:"Qualified DUT instance path, e.g. counter_tb.dut.")

let target_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "target" ] ~docv:"MODULE" ~doc:"Module under repair.")

let spec_of top clock dut : Sim.Simulate.spec = { top; clock; dut_path = dut }

(* The repair problem named by the shared design/golden/testbench flags. *)
let load_problem design golden testbench target top clock dut =
  Cirfix.Problem.make ~name:target
    ~faulty:(or_die (read_file design))
    ~golden:(or_die (read_file golden))
    ~testbench:(or_die (read_file testbench))
    ~target (spec_of top clock dut)

let backend_arg =
  Arg.(
    value
    & opt
        (enum
           [
             ("event", Sim.Simulate.Event);
             ("compiled", Sim.Simulate.Compiled);
             ("auto", Sim.Simulate.Auto);
           ])
        Sim.Simulate.Auto
    & info [ "backend" ] ~docv:"BACKEND"
        ~doc:
          "Simulation backend: $(b,event) interprets on the event-driven\n\
           scheduler; $(b,compiled) lowers each design once to a levelized\n\
           cycle evaluator and reuses it; $(b,auto) (the default) compiles\n\
           when the design is supported and falls back to the event engine\n\
           otherwise. Fallbacks are reported, never silent, and both\n\
           backends produce identical traces and fitness scores.")

(* --- Observability options ----------------------------------------------

   Three independent sinks, each enabled by naming an output file. All
   default off; when off, the instrumented code paths reduce to a boolean
   test per site. *)

let obs_args =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON timeline of the run here;\n\
             load it in Perfetto (ui.perfetto.dev) or chrome://tracing.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Write the metrics registry (counters, gauges, log-scale\n\
             histograms) as JSON here and print a one-line summary to\n\
             stderr.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL record per GP generation (or brute-force\n\
             batch) here, flushed per record so a running repair can be\n\
             followed with tail -f.")
  in
  let profile =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:
            "Self-profile the run and write the report (per-stack time,\n\
             GC deltas) as JSON here; a sibling FILE.folded file holds\n\
             FlameGraph/speedscope folded stacks.")
  in
  Term.(const (fun t m j p -> (t, m, j, p)) $ trace $ metrics $ journal $ profile)

(* The journal summary of a profiled run: per-region totals and GC work,
   small enough to sit beside the other journal records. The full path
   tree goes to the --profile file, not the journal, and the record is
   only emitted when profiling was requested, so default journals stay
   byte-identical across parallelism degrees. *)
let profile_journal_record (r : Obs.Profile.report) =
  [
    ("type", Obs.Json.Str "profile");
    ("total_ns", Obs.Json.Int r.r_total_ns);
    ( "regions",
      Obs.Json.List
        (List.map
           (fun (name, ns, count) ->
             Obs.Json.Obj
               [
                 ("name", Obs.Json.Str name);
                 ("ns", Obs.Json.Int ns);
                 ("count", Obs.Json.Int count);
               ])
           (Obs.Profile.regions r)) );
    ( "gc",
      Obs.Json.Obj
        [
          ("minor_words", Obs.Json.Float r.r_gc.gd_minor_words);
          ("promoted_words", Obs.Json.Float r.r_gc.gd_promoted_words);
          ("major_words", Obs.Json.Float r.r_gc.gd_major_words);
          ("minor_collections", Obs.Json.Int r.r_gc.gd_minor_collections);
          ("major_collections", Obs.Json.Int r.r_gc.gd_major_collections);
        ] );
  ]

(* Run [f] with the requested sinks open, then flush them. [f] returns an
   exit code rather than calling [exit] so the sinks are written even on
   failure paths ([exit] would skip the cleanup). *)
let with_obs ?(detail = false) (trace, metrics, journal, profile)
    (f : unit -> int) : unit =
  (match trace with None -> () | Some _ -> Obs.Trace.start ~detail ());
  (match metrics with None -> () | Some _ -> Obs.Metrics.set_enabled true);
  (match journal with None -> () | Some path -> Obs.Journal.open_file path);
  (match profile with None -> () | Some _ -> Obs.Profile.start ());
  let code =
    Fun.protect
      ~finally:(fun () ->
        (match profile with
        | None -> ()
        | Some path ->
            Obs.Profile.stop ();
            let r = Obs.Profile.report () in
            List.iter
              (fun msg -> Printf.eprintf "profile imbalance: %s\n" msg)
              r.Obs.Profile.r_imbalances;
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Obs.Json.to_string (Obs.Profile.to_json r));
                output_char oc '\n');
            Out_channel.with_open_text (path ^ ".folded") (fun oc ->
                output_string oc (Obs.Profile.folded r));
            if Obs.Journal.enabled () then
              Obs.Journal.emit (profile_journal_record r);
            Printf.eprintf "profile written to %s (+.folded)\n%!" path);
        (match trace with
        | None -> ()
        | Some path ->
            List.iter
              (fun msg -> Printf.eprintf "trace imbalance: %s\n" msg)
              (Obs.Trace.imbalances ());
            Obs.Trace.write_file path;
            Printf.eprintf "trace written to %s\n%!" path);
        (match metrics with
        | None -> ()
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Obs.Metrics.dump_string ());
                output_char oc '\n');
            Printf.eprintf "%s\nmetrics written to %s\n%!"
              (Obs.Metrics.summary ()) path;
            Obs.Metrics.set_enabled false;
            Obs.Metrics.reset ());
        Obs.Journal.close ())
      f
  in
  if code <> 0 then exit code

(* --- simulate ------------------------------------------------------------- *)

let simulate design testbench top clock dut backend show_display show_wave
    vcd_path obs =
  (* [detail] turns on per-timestep scheduler counter sampling: a single
     simulation is small enough that the sample volume is welcome. *)
  with_obs ~detail:true obs @@ fun () ->
  let d = or_die (read_file design) and tb = or_die (read_file testbench) in
  (* When dumping waveforms we drive the engine directly so the VCD
     observer can be attached before time 0. *)
  (match vcd_path with
  | None -> ()
  | Some path -> (
      match Verilog.Parser.parse_design_result (d ^ "\n" ^ tb) with
      | Error e ->
          Printf.eprintf "%s\n" e;
          exit 1
      | Ok parsed ->
          let elab = Sim.Elaborate.elaborate parsed ~top in
          let vcd = Sim.Vcd.attach elab.st in
          ignore (Sim.Engine.run elab);
          Sim.Vcd.to_file vcd path;
          Printf.printf "waveform written to %s\n" path));
  match
    Sim.Simulate.run_source ~backend ~source:(d ^ "\n" ^ tb)
      (spec_of top clock dut)
  with
  | Error (Sim.Simulate.Elab_failure m) ->
      Printf.eprintf "elaboration failed: %s\n" m;
      1
  | Ok r ->
      Printf.printf "outcome: %s (t=%d, %d statements, backend: %s)\n"
        (match r.outcome with
        | Sim.Engine.Finished -> "$finish"
        | Sim.Engine.Quiescent -> "event queue drained"
        | Sim.Engine.Time_limit_reached -> "time limit"
        | Sim.Engine.Budget_exceeded m -> "budget exceeded: " ^ m)
        r.end_time r.steps
        (Sim.Simulate.backend_used_to_string r.backend_used);
      if show_display && r.display <> "" then (
        print_endline "--- $display output ---";
        print_string r.display);
      print_endline "--- recorded trace ---";
      print_string (Sim.Recorder.to_string r.trace);
      if show_wave then (
        print_endline "--- waveform ---";
        print_string (Sim.Wave.render r.trace));
      0

let simulate_cmd =
  let doc = "Simulate a design under its testbench and print the recorded trace." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const simulate $ design_arg $ testbench_arg $ top_arg $ clock_arg
      $ dut_arg $ backend_arg
      $ Arg.(value & flag & info [ "display" ] ~doc:"Show \\$display output.")
      $ Arg.(value & flag & info [ "wave" ] ~doc:"Render an ASCII waveform.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "vcd" ] ~docv:"FILE" ~doc:"Also dump a VCD waveform.")
      $ obs_args)

(* --- oracle ----------------------------------------------------------------- *)

let oracle design testbench top clock dut =
  let d = or_die (read_file design) and tb = or_die (read_file testbench) in
  let parsed =
    match Verilog.Parser.parse_design_result (d ^ "\n" ^ tb) with
    | Ok x -> x
    | Error e ->
        Printf.eprintf "%s\n" e;
        exit 1
  in
  let tr = Cirfix.Oracle.of_golden_design parsed (spec_of top clock dut) in
  print_string (Cirfix.Oracle.to_csv tr)

let oracle_cmd =
  let doc =
    "Simulate a golden design and emit the expected-behaviour oracle as CSV."
  in
  Cmd.v
    (Cmd.info "oracle" ~doc)
    Term.(const oracle $ design_arg $ testbench_arg $ top_arg $ clock_arg $ dut_arg)

(* --- localize ----------------------------------------------------------------- *)

let localize design golden testbench target top clock dut =
  let problem = load_problem design golden testbench target top clock dut in
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  let m = Cirfix.Problem.target_module problem in
  let o = Cirfix.Evaluate.eval_module ev m in
  let mismatch =
    Cirfix.Fitness.mismatched_signals ~expected:problem.oracle ~actual:o.trace
  in
  Printf.printf "fitness of the faulty design: %.4f\n" o.fitness;
  Printf.printf "output mismatch set: %s\n" (String.concat ", " mismatch);
  let r = Cirfix.Fault_loc.localize m ~mismatch in
  Printf.printf "transitive mismatch set: %s\n"
    (String.concat ", " (Cirfix.Fault_loc.NameSet.elements r.mismatch));
  Printf.printf "fixed point reached after %d iterations\n" r.iterations;
  Printf.printf "implicated statements (%d nodes total):\n"
    (Cirfix.Fault_loc.IdSet.cardinal r.fl);
  List.iter
    (fun (s : Verilog.Ast.stmt) ->
      Printf.printf "  [%d] %s\n" s.Verilog.Ast.sid
        (String.map
           (function '\n' -> ' ' | c -> c)
           (Verilog.Pp.stmt_to_string s)))
    (Cirfix.Fault_loc.fl_statements m r);
  (* Slice membership: the backward cone of the mismatching outputs
     (Verilog.Slice), the region slice-based repair would search. *)
  let plan =
    let outs = Verilog.Slice.output_ports m in
    let seed = List.filter (fun o -> List.mem o outs) mismatch in
    Verilog.Slice.slice ~design:problem.design m
      ~outputs:(if seed = [] then outs else seed)
  in
  let cone = Verilog.Slice.cone_lines m plan in
  Printf.printf "backward cone of the mismatch: %d/%d nodes, %d/%d processes\n"
    (List.length plan.sl_kept) plan.sl_nodes_total plan.sl_procs_kept
    plan.sl_procs_total;
  (* Annotated source dump: suspiciousness = 1/round of implication; the
     second gutter column is cone membership (in/out). *)
  print_string "annotated source (heat = 1/round, in/out = mismatch cone):\n";
  List.iter
    (fun (text, w) ->
      let mark =
        if String.trim text = "" then "   "
        else if Hashtbl.mem cone (String.trim text) then "in "
        else "out"
      in
      if w > 0. then Printf.printf "  %4.2f %s | %s\n" w mark text
      else Printf.printf "       %s | %s\n" mark text)
    (Cirfix.Fault_loc.heat_lines m r)

let localize_cmd =
  let doc = "Run CirFix's dataflow fault localization on a faulty design." in
  Cmd.v
    (Cmd.info "localize" ~doc)
    Term.(
      const localize $ design_arg $ golden_arg $ testbench_arg $ target_arg
      $ top_arg $ clock_arg $ dut_arg)

(* --- slice ----------------------------------------------------------------- *)

let slice design testbench target top clock dut outputs out tb_out =
  let d = or_die (read_file design) and tb_src = or_die (read_file testbench) in
  let parsed =
    match Verilog.Parser.parse_design_result (d ^ "\n" ^ tb_src) with
    | Ok x -> x
    | Error e ->
        Printf.eprintf "%s\n" e;
        exit 1
  in
  let find name =
    match
      List.find_opt (fun (m : Verilog.Ast.module_decl) -> m.mod_id = name) parsed
    with
    | Some m -> m
    | None ->
        Printf.eprintf "error: no module %s in the design\n" name;
        exit 1
  in
  let m = find target and tb = find top in
  let inst =
    match Cirfix.Slicing.dut_instance (spec_of top clock dut) with
    | Some inst -> inst
    | None -> or_die (Error (Printf.sprintf "--dut must be %s.<instance>" top))
  in
  let out_ports = Verilog.Slice.output_ports m in
  let tb_read = Verilog.Slice.tb_read_outputs ~tb ~inst ~target:m in
  let seed =
    match outputs with
    | None -> out_ports
    | Some given ->
        List.iter
          (fun o ->
            if not (List.mem o out_ports) then (
              Printf.eprintf "error: %s is not an output port of %s\n" o target;
              exit 1))
          given;
        (* Outputs the testbench reads back shape the stimulus; dropping
           them would change what the slice is simulated against. *)
        List.sort_uniq compare (given @ Verilog.Slice.Names.elements tb_read)
  in
  let plan = Verilog.Slice.slice ~design:parsed m ~outputs:seed in
  (* Manifest. *)
  Printf.printf "slice of %s seeded on outputs: %s\n" target
    (String.concat ", " seed);
  if outputs <> None && not (Verilog.Slice.Names.is_empty tb_read) then
    Printf.printf "  tb-read outputs retained: %s\n"
      (String.concat ", " (Verilog.Slice.Names.elements tb_read));
  Printf.printf "  nodes: %d/%d kept, processes: %d/%d\n"
    (List.length plan.sl_kept)
    plan.sl_nodes_total plan.sl_procs_kept plan.sl_procs_total;
  Printf.printf "  size: %d/%d AST nodes (%.0f%%)\n"
    (Verilog.Ast_utils.module_size plan.sl_module)
    (Verilog.Ast_utils.module_size m)
    (100.
    *. float_of_int (Verilog.Ast_utils.module_size plan.sl_module)
    /. float_of_int (max 1 (Verilog.Ast_utils.module_size m)));
  Printf.printf "  inputs: %s\n" (String.concat ", " plan.sl_inputs);
  Printf.printf "  outputs: %s\n" (String.concat ", " plan.sl_outputs);
  Printf.printf "  kept item ids: %s\n"
    (String.concat ", " (List.map string_of_int plan.sl_kept));
  Printf.printf "  dropped item ids: %s\n"
    (match plan.sl_dropped with
    | [] -> "(none)"
    | l -> String.concat ", " (List.map string_of_int l));
  Printf.printf "  structural hash: %s\n" plan.sl_hash;
  let tb' = Verilog.Slice.rewrite_testbench ~tb ~inst ~target:m plan in
  let sliced_design =
    List.filter_map
      (fun (md : Verilog.Ast.module_decl) ->
        if md.mod_id = top then None
        else if md.mod_id = target then Some plan.sl_module
        else Some md)
      parsed
  in
  let design_src =
    String.concat "\n" (List.map Verilog.Pp.module_to_string sliced_design)
  in
  let tb_txt = Verilog.Pp.module_to_string tb' in
  (match out with
  | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc design_src);
      Printf.printf "sliced design written to %s\n" path
  | None ->
      print_endline "--- sliced design ---";
      print_string design_src);
  (match tb_out with
  | Some path ->
      Out_channel.with_open_text path (fun oc -> output_string oc tb_txt);
      Printf.printf "rewritten testbench written to %s\n" path
  | None ->
      print_endline "--- rewritten testbench ---";
      print_string tb_txt);
  0

let slice_cmd =
  let doc =
    "Extract the cone-of-influence slice of a module: the backward cone of\n\
     chosen output ports, emitted as a self-contained module plus a\n\
     rewritten testbench."
  in
  Cmd.v (Cmd.info "slice" ~doc)
    Term.(
      const (fun a b c d e f g h i -> ignore (slice a b c d e f g h i))
      $ design_arg $ testbench_arg $ target_arg $ top_arg $ clock_arg $ dut_arg
      $ Arg.(
          value
          & opt (some (list string)) None
          & info [ "outputs" ] ~docv:"NAMES"
              ~doc:
                "Comma-separated output ports seeding the backward cone\n\
                 (default: all output ports of the target).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "output"; "o" ] ~docv:"FILE"
              ~doc:"Write the sliced design here (default: stdout).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "tb-out" ] ~docv:"FILE"
              ~doc:"Write the rewritten testbench here (default: stdout)."))

(* --- repair ----------------------------------------------------------------- *)

let jobs_arg =
  Arg.(
    value
    & opt int (Cirfix.Config.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel candidate evaluation (1 = sequential;\n\
           default: recommended domain count minus one). Results are\n\
           identical for any value when the wall-clock bound does not bind.")

(* Screening and pruning switches shared by the search subcommands. *)
let race_screen_arg =
  Arg.(
    value & flag
    & info [ "race-screen" ]
        ~doc:
          "Reject candidates containing a static race hazard (see the\n\
           $(b,race) subcommand) before simulating them; rejections\n\
           are reported as racy rejects.")

let no_prune_arg =
  Arg.(
    value & flag
    & info [ "no-prune" ]
        ~doc:
          "Disable the static pruning lanes (semantic-hash folding\n\
           and dead-edit skipping); every cache-missing candidate is\n\
           simulated.")

let check_pruning_arg =
  Arg.(
    value & flag
    & info [ "check-pruning" ]
        ~doc:
          "Verification mode: simulate every statically-pruned\n\
           candidate anyway and fail if its fitness differs from the\n\
           value the pruning lane served. Slow; for differential\n\
           testing of the pruner.")

(* The search configuration [repair] and [brute] both take from flags. *)
let search_config =
  let make max_probes wall jobs backend race_screen no_prune check_pruning =
    {
      Cirfix.Config.default with
      max_probes;
      max_wall_seconds = wall;
      jobs;
      backend;
      screen_races = race_screen;
      prune = not no_prune;
      check_pruning;
    }
  in
  Term.(
    const make
    $ Arg.(value & opt int 8000 & info [ "max-probes" ] ~doc:"Fitness budget.")
    $ Arg.(
        value & opt float 120.0 & info [ "wall" ] ~doc:"Wall-clock bound (s).")
    $ jobs_arg $ backend_arg $ race_screen_arg $ no_prune_arg
    $ check_pruning_arg)

(* Print the summary table of a search run (GP or brute-force), aligned:
   memo behaviour and the per-status reject breakdown, rates relative to
   evaluations requested; [stitched] is the stitched-verification count
   of a run whose slicing engaged. *)
let print_summary (c : Cirfix.Evaluate.counters) ~mutants ~jobs ~wall_seconds
    ~stitched =
  let get = Cirfix.Evaluate.get c and secs = Cirfix.Evaluate.seconds c in
  let lookups = get Lookups and probes = get Probes in
  (* Values are unpadded: [Stats.kv_table] recomputes both column widths
     from the rows, so counts of any magnitude stay aligned. *)
  let count_pct k =
    Printf.sprintf "%d  (%.1f%% of evals)" (get k)
      (Cirfix.Stats.percent ~part:(get k) ~total:lookups)
  in
  let sims k t =
    Printf.sprintf "%d  (%.1f sims/sec in-sim)" (get k)
      (Cirfix.Stats.sims_per_sec ~probes:(get k) ~wall_seconds:(secs t))
  in
  [
    ("evaluations requested", Printf.sprintf "%d" lookups);
    ("memo hits", count_pct Memo_hits);
    ("semantic hits", count_pct Semantic_hits);
    ("dead-edit skips", count_pct Dead_edit_skips);
    ("probes (simulations)", count_pct Probes);
    ("compile errors", count_pct Compile_errors);
    ("static rejects", count_pct Static_rejects);
    ("oversize rejects", count_pct Oversize_rejects);
    ("racy rejects", count_pct Racy_rejects);
  ]
  @ (match mutants with
    | Some m -> [ ("mutants generated", Printf.sprintf "%d" m) ]
    | None -> [])
  (* Per-backend breakdown: counts are jobs-invariant (accounted at
     commit time); the in-sim rates are timing and vary run to run. *)
  @ [
      ("sims (event)", sims Sims_event Sim_seconds_event);
      ("sims (compiled)", sims Sims_compiled Sim_seconds_compiled);
      ("compiled fallbacks", Printf.sprintf "%d" (get Compiled_fallbacks));
      ( "throughput",
        Printf.sprintf "%.1f  sims/sec (jobs=%d)"
          (Cirfix.Stats.sims_per_sec ~probes ~wall_seconds)
          jobs );
      ("wall time", Printf.sprintf "%.1f  s" wall_seconds);
    ]
  @ (match stitched with
    | None -> []
    | Some n ->
        [
          ("slice", Printf.sprintf "engaged  (%d sims on the slice)" probes);
          ("stitched verifies", Printf.sprintf "%d" n);
        ])
  |> Cirfix.Stats.kv_table |> print_endline

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Live status line on stderr (generation/depth, best fitness,\n\
           sims/sec, memo-hit rate, elapsed). Only when stderr is a TTY;\n\
           silent when piped.")

(* Returns [(show, clear)]. [show] rewrites one stderr status line,
   throttled to ~4 Hz so per-candidate callbacks cost a clock read and a
   compare; [clear] erases it before the final summary prints. Both are
   no-ops unless requested AND stderr is a terminal, so piped or logged
   runs see no control characters. *)
let make_progress ~enabled =
  if not (enabled && Unix.isatty Unix.stderr) then ((fun _ -> ()), fun () -> ())
  else begin
    let last = ref neg_infinity in
    let shown = ref false in
    let show line =
      let now = Unix.gettimeofday () in
      if now -. !last >= 0.25 then begin
        last := now;
        shown := true;
        Printf.eprintf "\r\027[K%s%!" line
      end
    in
    let clear () =
      if !shown then begin
        shown := false;
        Printf.eprintf "\r\027[K%!"
      end
    in
    (show, clear)
  end

let repair design golden testbench target top clock dut seed pop_size
    generations (cfg : Cirfix.Config.t) output progress obs =
  with_obs obs @@ fun () ->
  let problem = load_problem design golden testbench target top clock dut in
  let cfg = { cfg with seed; pop_size; max_generations = generations } in
  let show_progress, clear_progress = make_progress ~enabled:progress in
  let live = progress && Unix.isatty Unix.stderr in
  let t_start = Unix.gettimeofday () in
  let on_generation (g : Cirfix.Gp.generation_stats) =
    (* The status line replaces the per-generation log when live; both on
       the same stream would interleave mid-line. *)
    if not live then
      Printf.eprintf "gen %2d: best %.3f mean %.3f (%d probes)\n%!" g.gen
        g.best_fitness g.mean_fitness g.probes_so_far
    else begin
      let elapsed = Unix.gettimeofday () -. t_start in
      show_progress
        (Printf.sprintf
           "gen %d  best %.3f  %.0f sims/s  memo %.0f%%  %.1fs elapsed" g.gen
           g.best_fitness
           (Cirfix.Stats.sims_per_sec ~probes:g.probes_so_far
              ~wall_seconds:elapsed)
           (Cirfix.Stats.percent ~part:g.memo_hits_so_far
              ~total:g.lookups_so_far)
           elapsed)
    end
  in
  let r = Cirfix.Gp.repair ~on_generation cfg problem in
  clear_progress ();
  Printf.printf "initial fitness: %.4f\n" r.initial_fitness;
  print_summary r.counters ~mutants:(Some r.mutants_generated) ~jobs:cfg.jobs
    ~wall_seconds:r.wall_seconds
    ~stitched:(if r.sliced then Some r.stitched_verifies else None);
  (* Replay the final design (repaired when found, else the faulty
     original) under the repair testbench with coverage enabled, so the
     summary reports how much of the target the oracle actually
     exercises. *)
  (let final =
     match r.repaired_module with
     | Some m -> m
     | None -> Cirfix.Problem.target_module problem
   in
   let final_design = Cirfix.Problem.with_candidate problem final in
   try
     let elab = Sim.Elaborate.elaborate final_design ~top:problem.spec.top in
     Sim.Runtime.enable_coverage elab.st;
     ignore (Sim.Engine.run elab);
     let reports = Sim.Coverage.report elab.st final_design in
     match
       List.find_opt
         (fun (cr : Sim.Coverage.module_report) -> cr.mr_module = target)
         reports
     with
     | Some cr ->
         Printf.printf "target statement coverage: %.1f%% (%d/%d statements)\n"
           (Cirfix.Stats.coverage_percent ~covered:cr.mr_covered
              ~total:cr.mr_total)
           cr.mr_covered cr.mr_total
     | None -> ()
   with Sim.Runtime.Elab_error _ -> ());
  match (r.minimized, r.repaired_module) with
  | Some patch, Some m ->
      Printf.printf "REPAIRED (minimized to %d edits):\n  %s\n"
        (List.length patch)
        (Cirfix.Patch.to_string patch);
      let src = Verilog.Pp.module_to_string m in
      (match output with
      | Some path ->
          Out_channel.with_open_text path (fun oc -> output_string oc src);
          Printf.printf "repaired module written to %s\n" path
      | None ->
          print_endline "--- repaired module ---";
          print_endline src);
      0
  | _ ->
      print_endline "no repair found within the resource bounds";
      2

let repair_cmd =
  let doc = "Search for a repair to a faulty design (Algorithm 1)." in
  Cmd.v
    (Cmd.info "repair" ~doc)
    Term.(
      const repair $ design_arg $ golden_arg $ testbench_arg $ target_arg
      $ top_arg $ clock_arg $ dut_arg
      $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")
      $ Arg.(value & opt int 60 & info [ "pop-size" ] ~doc:"Population size.")
      $ Arg.(value & opt int 40 & info [ "generations" ] ~doc:"Max generations.")
      $ search_config
      $ Arg.(
          value
          & opt (some string) None
          & info [ "output"; "o" ] ~docv:"FILE"
              ~doc:"Write the repaired module here.")
      $ progress_arg $ obs_args)

(* --- brute ------------------------------------------------------------------ *)

let brute design golden testbench target top clock dut max_depth
    (cfg : Cirfix.Config.t) progress obs =
  with_obs obs @@ fun () ->
  let problem = load_problem design golden testbench target top clock dut in
  let show_progress, clear_progress = make_progress ~enabled:progress in
  let t_start = Unix.gettimeofday () in
  let on_progress (p : Cirfix.Brute_force.progress) =
    let elapsed = Unix.gettimeofday () -. t_start in
    let get = Cirfix.Evaluate.get p.bp_counters in
    show_progress
      (Printf.sprintf
         "depth %d  tried %d  best %.3f  %.0f sims/s  memo %.0f%%  %.1fs \
          elapsed"
         p.bp_depth p.bp_tried p.bp_best
         (Cirfix.Stats.sims_per_sec ~probes:(get Probes) ~wall_seconds:elapsed)
         (Cirfix.Stats.percent ~part:(get Memo_hits) ~total:(get Lookups))
         elapsed)
  in
  let r = Cirfix.Brute_force.search ~max_depth ~on_progress cfg problem in
  clear_progress ();
  Printf.printf "candidates tried: %d (depth <= %d)\n" r.candidates_tried
    max_depth;
  print_summary r.counters ~mutants:None ~jobs:cfg.jobs
    ~wall_seconds:r.wall_seconds
    ~stitched:(if r.sliced then Some r.stitched_verifies else None);
  match r.repaired with
  | Some patch ->
      Printf.printf "REPAIRED (%d edits):\n  %s\n" (List.length patch)
        (Cirfix.Patch.to_string patch);
      0
  | None ->
      print_endline "no repair found within the resource bounds";
      2

let brute_cmd =
  let doc =
    "Search for a repair by brute-force edit enumeration (the paper's RQ1\n\
     baseline): breadth-first over edit depth, no fault localization, no\n\
     fitness guidance beyond the plausibility check."
  in
  Cmd.v (Cmd.info "brute" ~doc)
    Term.(
      const brute $ design_arg $ golden_arg $ testbench_arg $ target_arg
      $ top_arg $ clock_arg $ dut_arg
      $ Arg.(
          value & opt int 2
          & info [ "max-depth" ] ~docv:"N" ~doc:"Maximum edits per patch.")
      $ search_config $ progress_arg $ obs_args)

(* --- profile ---------------------------------------------------------------- *)

(* Canonical ledger row order: pipeline position, not alphabetical, so
   event and compiled columns line up on the same phases. *)
let region_order =
  [ "elab"; "setup"; "comb"; "active"; "nba"; "monitor"; "advance"; "collect" ]

(* One profiled measurement of a backend ({!Sim.Simulate.profile}). *)
type backend_profile = { pb_name : string; pb : Sim.Simulate.profiled }

let profile_backend ~runs design spec backend name : backend_profile =
  match Sim.Simulate.profile ~runs ~backend design spec with
  | Error (Sim.Simulate.Elab_failure m) ->
      or_die (Error (Printf.sprintf "elaboration failed: %s" m))
  | Ok pb -> { pb_name = name; pb }

let coverage_of (b : backend_profile) =
  if b.pb.wall_ns = 0 then 1.0
  else float_of_int b.pb.report.r_total_ns /. float_of_int b.pb.wall_ns

(* Rows of (label, per-backend ns/edge cells), over the union of names
   seen by any backend, canonical regions first then by time. *)
let ledger_rows ~select (backends : backend_profile list) =
  let per_backend =
    List.map (fun b -> (b, select b.pb.report)) backends
  in
  let names =
    List.concat_map (fun (_, rows) -> List.map (fun (n, _, _) -> n) rows)
      per_backend
    |> List.sort_uniq compare
  in
  let rank n =
    let rec idx i = function
      | [] -> List.length region_order
      | r :: _ when r = n -> i
      | _ :: tl -> idx (i + 1) tl
    in
    idx 0 region_order
  in
  let time_of n =
    List.fold_left
      (fun acc (_, rows) ->
        List.fold_left
          (fun acc (n', ns, _) -> if n' = n then max acc ns else acc)
          acc rows)
      0 per_backend
  in
  List.sort
    (fun a b ->
      match compare (rank a) (rank b) with
      | 0 -> compare (time_of b, a) (time_of a, b)
      | c -> c)
    names
  |> List.map (fun n ->
         ( n,
           List.map
             (fun (b, rows) ->
               let ns =
                 List.fold_left
                   (fun acc (n', ns, _) -> if n' = n then acc + ns else acc)
                   0 rows
               in
               if b.pb.edges = 0 then None
               else Some (float_of_int ns /. float_of_int b.pb.edges))
             per_backend ))

let print_ledger (backends : backend_profile list) ~top_k =
  let cell = function None -> "-" | Some v -> Printf.sprintf "%.1f" v in
  let table title rows =
    let header =
      ("", List.map (fun b -> b.pb_name ^ " ns/edge") backends)
    in
    let widths =
      List.mapi
        (fun i _ ->
          List.fold_left
            (fun acc (_, cells) -> max acc (String.length (List.nth cells i)))
            (String.length (List.nth (snd header) i))
            rows)
        backends
    in
    let name_w =
      List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 rows
    in
    Printf.printf "%s\n" title;
    let line n cells =
      Printf.printf "  %-*s" name_w n;
      List.iteri
        (fun i c -> Printf.printf "  %*s" (List.nth widths i) c)
        cells;
      print_newline ()
    in
    line (fst header) (snd header);
    List.iter (fun (n, cells) -> line n cells) rows;
    print_newline ()
  in
  table "per-edge cost ledger (by scheduler region)"
    (List.map
       (fun (n, cells) -> (n, List.map cell cells))
       (ledger_rows ~select:Obs.Profile.regions backends));
  let proc_rows = ledger_rows ~select:Sim.Simulate.proc_frames backends in
  table
    (Printf.sprintf "top %d process/node frames (self time)" top_k)
    (List.map
       (fun (n, cells) -> (n, List.map cell cells))
       (List.filteri (fun i _ -> i < top_k) proc_rows));
  List.iter
    (fun b ->
      Printf.printf
        "%s: %d edges, %.2f ms wall, %.2f ms attributed (%.1f%% coverage, \
         backend: %s)\n"
        b.pb_name b.pb.edges
        (float_of_int b.pb.wall_ns /. 1e6)
        (float_of_int b.pb.report.r_total_ns /. 1e6)
        (100. *. coverage_of b)
        (Sim.Simulate.backend_used_to_string b.pb.used))
    backends

let profile_json (backends : backend_profile list) ~runs =
  Obs.Json.Obj
    [
      ("runs", Obs.Json.Int runs);
      ( "backends",
        Obs.Json.List
          (List.map
             (fun b ->
               Obs.Json.Obj
                 [
                   ("backend", Obs.Json.Str b.pb_name);
                   ( "backend_used",
                     Obs.Json.Str (Sim.Simulate.backend_used_to_string b.pb.used) );
                   ("edges", Obs.Json.Int b.pb.edges);
                   ("wall_ns", Obs.Json.Int b.pb.wall_ns);
                   ("coverage", Obs.Json.Float (coverage_of b));
                   ("report", Obs.Profile.to_json b.pb.report);
                 ])
             backends) );
    ]

let profile_run design testbench top clock dut which runs top_k folded out
    check =
  let d = or_die (read_file design) and tb = or_die (read_file testbench) in
  let parsed =
    or_die (Verilog.Parser.parse_design_result (d ^ "\n" ^ tb))
  in
  let spec = spec_of top clock dut in
  let wanted =
    match which with
    | `Both ->
        [ (Sim.Simulate.Event, "event"); (Sim.Simulate.Compiled, "compiled") ]
    | `Event -> [ (Sim.Simulate.Event, "event") ]
    | `Compiled -> [ (Sim.Simulate.Compiled, "compiled") ]
  in
  let backends =
    List.map
      (fun (backend, name) -> profile_backend ~runs parsed spec backend name)
      wanted
  in
  List.iter
    (fun b ->
      List.iter
        (fun msg -> Printf.eprintf "profile imbalance (%s): %s\n" b.pb_name msg)
        b.pb.report.Obs.Profile.r_imbalances)
    backends;
  print_ledger backends ~top_k;
  (match folded with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          List.iter
            (fun b ->
              List.iter
                (fun (p : Obs.Profile.path) ->
                  Printf.fprintf oc "%s;%s %d\n" b.pb_name
                    (String.concat ";" p.p_stack)
                    p.p_ns)
                b.pb.report.r_paths)
            backends);
      Printf.printf "folded stacks written to %s\n" path);
  (match out with
  | None -> ()
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Obs.Json.to_string (profile_json backends ~runs));
          output_char oc '\n');
      Printf.printf "profile JSON written to %s\n" path);
  if check then begin
    let bad = List.filter (fun b -> coverage_of b < 0.9) backends in
    List.iter
      (fun b ->
        Printf.eprintf "coverage check failed: %s attributes %.1f%% < 90%%\n"
          b.pb_name (100. *. coverage_of b))
      bad;
    if bad <> [] then exit 1
  end;
  0

let profile_cmd =
  let doc =
    "Self-profile the simulator on a design: run it N times per backend\n\
     and print the per-edge cost ledger (ns per recorded clock edge, by\n\
     scheduler region and by process), event vs compiled side by side."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const (fun d t top clock dut which runs top_k folded out check ->
          ignore (profile_run d t top clock dut which runs top_k folded out check))
      $ design_arg $ testbench_arg $ top_arg $ clock_arg $ dut_arg
      $ Arg.(
          value
          & opt
              (enum [ ("both", `Both); ("event", `Event); ("compiled", `Compiled) ])
              `Both
          & info [ "backend" ] ~docv:"BACKEND"
              ~doc:"Which backend(s) to profile: $(b,event), $(b,compiled),\n\
                    or $(b,both) (default).")
      $ Arg.(
          value & opt int 10
          & info [ "runs" ] ~docv:"N"
              ~doc:"Profiled simulations per backend (after one unprofiled\n\
                    warm-up).")
      $ Arg.(
          value & opt int 10
          & info [ "top-k" ] ~docv:"K" ~doc:"Process frames to show.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "folded" ] ~docv:"FILE"
              ~doc:
                "Write FlameGraph/speedscope folded stacks here, one line\n\
                 per stack prefixed with the backend name.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "out" ] ~docv:"FILE"
              ~doc:"Write the full ledger (reports, coverage) as JSON here.")
      $ Arg.(
          value & flag
          & info [ "check" ]
              ~doc:
                "Exit nonzero unless every profiled backend attributes at\n\
                 least 90% of measured wall time."))

(* --- coverage ---------------------------------------------------------------------- *)

let coverage design testbench top =
  let d = or_die (read_file design) and tb = or_die (read_file testbench) in
  match Verilog.Parser.parse_design_result (d ^ "\n" ^ tb) with
  | Error e ->
      Printf.eprintf "%s\n" e;
      exit 1
  | Ok parsed ->
      let elab = Sim.Elaborate.elaborate parsed ~top in
      Sim.Runtime.enable_coverage elab.st;
      ignore (Sim.Engine.run elab);
      (* Report only the design's modules, not the testbench. *)
      let design_mods =
        match Verilog.Parser.parse_design_result d with
        | Ok mods -> List.map (fun (m : Verilog.Ast.module_decl) -> m.mod_id) mods
        | Error _ -> []
      in
      List.iter
        (fun (r : Sim.Coverage.module_report) ->
          if List.mem r.mr_module design_mods then
            Format.printf "%a" Sim.Coverage.pp r)
        (Sim.Coverage.report elab.st parsed)

let coverage_cmd =
  let doc = "Report statement coverage of a design under its testbench." in
  Cmd.v
    (Cmd.info "coverage" ~doc)
    Term.(const coverage $ design_arg $ testbench_arg $ top_arg)

(* --- lint ------------------------------------------------------------------------ *)

let lint style_only semantic_only files =
  if style_only && semantic_only then
    or_die (Error "--style-only and --semantic-only are mutually exclusive");
  let total_errors = ref 0 in
  let total_findings = ref 0 in
  List.iter
    (fun path ->
      let src = or_die (read_file path) in
      match Verilog.Parser.parse_design_result src with
      | Error e ->
          Printf.printf "%s: parse error: %s\n" path e;
          incr total_errors;
          incr total_findings
      | Ok design ->
          let style = if semantic_only then [] else Verilog.Lint.check_design design in
          let semantic =
            if style_only then [] else Verilog.Analysis.check_design design
          in
          List.iter
            (fun (_, findings) ->
              List.iter
                (fun (f : Verilog.Lint.finding) ->
                  incr total_findings;
                  if f.severity = Verilog.Lint.Error then incr total_errors;
                  Format.printf "%s: %a@." path Verilog.Lint.pp_finding f)
                findings)
            (style @ semantic))
    files;
  if !total_findings = 0 then print_endline "no findings";
  if !total_errors > 0 then exit 1

let lint_args =
  Term.(
    const lint
    $ Arg.(
        value & flag
        & info [ "style-only" ]
            ~doc:"Only run the style/synthesizability lint rules.")
    $ Arg.(
        value & flag
        & info [ "semantic-only" ]
            ~doc:
              "Only run the semantic analyses (combinational loops,\n\
               uninitialized registers, width truncation, constant\n\
               conditions).")
    $ Arg.(
        non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"Verilog files."))

let lint_cmd =
  let doc =
    "Run static checks over Verilog sources: style/synthesizability rules\n\
     (latch inference, incomplete sensitivity lists, blocking/non-blocking\n\
     misuse, multiple drivers) plus the semantic analyses used by the\n\
     repair engine's mutant screener (combinational loops, uninitialized\n\
     registers, width truncation, constant conditions). Exits non-zero if\n\
     any $(b,error)-severity finding fires."
  in
  Cmd.v (Cmd.info "lint" ~doc) lint_args

let analyze_cmd =
  let doc = "Alias of $(b,lint): run all static analyses over Verilog sources." in
  Cmd.v (Cmd.info "analyze" ~doc) lint_args

(* --- race ------------------------------------------------------------------------ *)

let race top files =
  let design =
    List.concat_map
      (fun path ->
        let src = or_die (read_file path) in
        match Verilog.Parser.parse_design_result src with
        | Error e ->
            Printf.eprintf "%s: parse error: %s\n" path e;
            exit 1
        | Ok d -> d)
      files
  in
  let tops =
    match top with Some t -> [ t ] | None -> Verilog.Race.roots design
  in
  let total_errors = ref 0 in
  let total = ref 0 in
  List.iter
    (fun t ->
      List.iter
        (fun (f : Verilog.Lint.finding) ->
          incr total;
          if f.severity = Verilog.Lint.Error then incr total_errors;
          Format.printf "%a@." Verilog.Lint.pp_finding f)
        (Verilog.Race.check_design ~top:t design))
    tops;
  Printf.printf "race: %d finding(s) across %d root(s)\n" !total
    (List.length tops);
  if !total_errors > 0 then exit 1

let race_cmd =
  let doc =
    "Run the elaboration-aware race analyzer over Verilog sources: flatten\n\
     the hierarchy under each top module (every never-instantiated module\n\
     unless $(b,--top) is given) and report scheduling hazards — write-write\n\
     races, blocking read-write races within a clock domain, mixed\n\
     blocking/non-blocking writes, and stale reads from incomplete\n\
     sensitivity lists. Exits non-zero if any $(b,error)-severity finding\n\
     fires."
  in
  Cmd.v (Cmd.info "race" ~doc)
    Term.(
      const race
      $ Arg.(
          value
          & opt (some string) None
          & info [ "top" ] ~docv:"MODULE"
              ~doc:"Only analyze the hierarchy rooted at MODULE.")
      $ Arg.(
          non_empty & pos_all file []
          & info [] ~docv:"FILE"
              ~doc:"Verilog files, parsed together as one design."))

(* --- scenarios ------------------------------------------------------------------ *)

let scenarios id dump run_it trials jobs race_screen =
  let selected =
    match id with
    | Some n -> [ Bench_suite.Defects.find n ]
    | None -> Bench_suite.Defects.all
  in
  Cirfix.Pool.with_pool ~jobs @@ fun pool ->
  List.iter
    (fun (d : Bench_suite.Defects.t) ->
      Printf.printf "#%-3d %-22s cat%d  %s\n" d.id d.project d.category
        d.description;
      if dump then (
        print_endline "--- faulty source ---";
        print_endline (Bench_suite.Defects.inject d));
      if run_it then (
        let cfg =
          {
            (Bench_suite.Runner.scenario_config d) with
            screen_races = race_screen;
          }
        in
        let s = Bench_suite.Runner.run_defect ~cfg ~trials ~pool d in
        let get = Cirfix.Evaluate.get s.counters in
        Printf.printf
          "  result: %s (%.1fs, %d probes, %.1f sims/sec, %d static rejects, \
           %d oversize rejects, %d racy rejects)\n"
          (if s.correct then "correct repair"
           else if s.repaired then "plausible repair"
           else "no repair")
          s.total_seconds (get Probes)
          (Cirfix.Stats.sims_per_sec ~probes:(get Probes)
             ~wall_seconds:s.total_seconds)
          (get Static_rejects) (get Oversize_rejects) (get Racy_rejects);
        (match s.patch with
        | Some p -> Printf.printf "  patch: %s\n" (Cirfix.Patch.to_string p)
        | None -> ())))
    selected

let scenarios_cmd =
  let doc = "List, dump, or run the 32 benchmark defect scenarios (Table 3)." in
  Cmd.v
    (Cmd.info "scenarios" ~doc)
    Term.(
      const scenarios
      $ Arg.(
          value
          & opt (some int) None
          & info [ "id" ] ~docv:"N" ~doc:"Only scenario N (1..32).")
      $ Arg.(value & flag & info [ "dump-faulty" ] ~doc:"Print the faulty source.")
      $ Arg.(value & flag & info [ "run" ] ~doc:"Run CirFix on the scenario(s).")
      $ Arg.(value & opt int 5 & info [ "trials" ] ~doc:"Trials per scenario.")
      $ jobs_arg $ race_screen_arg)

(* --- report ---------------------------------------------------------------------- *)

let report journal metrics out =
  let contents = or_die (read_file journal) in
  let records =
    or_die
      (Result.map_error
         (fun e -> Printf.sprintf "%s: %s" journal e)
         (Obs.Report.parse_journal contents))
  in
  let metrics_json =
    Option.map
      (fun path ->
        or_die
          (Result.map_error
             (fun e -> Printf.sprintf "%s: %s" path e)
             (Obs.Json.parse (or_die (read_file path)))))
      metrics
  in
  let html = Obs.Report.render ?metrics:metrics_json records in
  match out with
  | None -> print_string html
  | Some path ->
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc html);
      Printf.eprintf "wrote %s (%d journal records)\n" path
        (List.length records)

let report_cmd =
  let doc =
    "Render a repair journal (from --journal) as a self-contained HTML \
     report: fitness/diversity curves, the evaluation breakdown, per-signal \
     attribution, the fault-localization heatmap, and the winning patch's \
     lineage tree."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(
      const report
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"JOURNAL" ~doc:"Journal file (JSONL) to render.")
      $ Arg.(
          value
          & opt (some file) None
          & info [ "metrics" ] ~docv:"FILE"
              ~doc:"Optional metrics dump (JSON) to include.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "o"; "output" ] ~docv:"FILE"
              ~doc:"Write the report here (default: stdout)."))

(* --- campaign -------------------------------------------------------------------- *)

let campaign ids quick seeds jobs out_dir budget_scale progress =
  let scenarios =
    match ids with
    | Some ids -> List.map Bench_suite.Defects.find ids
    | None ->
        if quick then Bench_suite.Campaign.quick_scenarios ()
        else Bench_suite.Defects.all
  in
  let config =
    if quick then Bench_suite.Campaign.quick_config
    else Bench_suite.Runner.scenario_config ~budget_scale
  in
  let job_list = Bench_suite.Campaign.jobs ~scenarios ~seeds in
  let show_progress, clear_progress = make_progress ~enabled:progress in
  let t0 = Unix.gettimeofday () in
  let repaired = ref 0 in
  let on_done ~done_ ~total (r : Bench_suite.Campaign.job_result) =
    (match r.r_outcome with
    | Bench_suite.Campaign.Repaired -> incr repaired
    | _ -> ());
    let elapsed = Unix.gettimeofday () -. t0 in
    let eta =
      if done_ = 0 then 0.
      else elapsed /. float_of_int done_ *. float_of_int (total - done_)
    in
    show_progress
      (Printf.sprintf
         "campaign  %d/%d jobs | repair rate %.0f%% | elapsed %.0fs | eta \
          %.0fs"
         done_ total
         (100. *. float_of_int !repaired /. float_of_int done_)
         elapsed eta)
  in
  let results =
    Bench_suite.Campaign.run ~config ~on_done ~jobs ~out_dir job_list
  in
  clear_progress ();
  (* Per-scenario summary on stdout; the machine-readable view is the
     manifest (and `cirfix dashboard --table`). *)
  let by_id =
    List.sort_uniq compare
      (List.map (fun (d : Bench_suite.Defects.t) -> d.id) scenarios)
  in
  List.iter
    (fun id ->
      let rs =
        List.filter
          (fun (r : Bench_suite.Campaign.job_result) ->
            r.r_job.c_defect.id = id)
          results
      in
      let count p = List.length (List.filter p rs) in
      let project =
        match rs with
        | r :: _ -> r.r_job.c_defect.project
        | [] -> "?"
      in
      Printf.printf "scenario %2d  %-22s  repaired %d/%d  correct %d/%d%s\n"
        id project
        (count (fun r -> r.r_outcome = Bench_suite.Campaign.Repaired))
        (List.length rs)
        (count (fun r -> r.r_correct))
        (List.length rs)
        (match
           count (fun r ->
               match r.r_outcome with
               | Bench_suite.Campaign.Failed _ -> true
               | _ -> false)
         with
        | 0 -> ""
        | n -> Printf.sprintf "  errors %d" n))
    by_id;
  let total = List.length results in
  let repaired_total =
    List.length
      (List.filter
         (fun (r : Bench_suite.Campaign.job_result) ->
           r.r_outcome = Bench_suite.Campaign.Repaired)
         results)
  in
  Printf.printf
    "campaign: %d job(s), repair rate %.1f%%, wall %.1fs; manifest: %s\n"
    total
    (if total = 0 then 0.
     else 100. *. float_of_int repaired_total /. float_of_int total)
    (Unix.gettimeofday () -. t0)
    (Filename.concat out_dir "manifest.jsonl")

let campaign_cmd =
  let doc =
    "Corpus-wide repair campaign: run defect scenarios x seeds as parallel \
     jobs over the domain pool, writing one journal per job plus an \
     append-only manifest.jsonl; render the results with $(b,cirfix \
     dashboard)."
  in
  Cmd.v
    (Cmd.info "campaign" ~doc)
    Term.(
      const campaign
      $ Arg.(
          value
          & opt (some (list int)) None
          & info [ "scenarios" ] ~docv:"IDS"
              ~doc:
                "Comma-separated scenario ids (1..32) to sweep\n\
                 (default: all 32, or the quick subset with $(b,--quick)).")
      $ Arg.(
          value & flag
          & info [ "quick" ]
              ~doc:
                "Smoke sweep: a few fast scenarios under sharply reduced\n\
                 budgets; finishes in seconds.")
      $ Arg.(
          value & opt int 1
          & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per scenario (1..N).")
      $ jobs_arg
      $ Arg.(
          value
          & opt string "campaign-out"
          & info [ "out"; "o" ] ~docv:"DIR"
              ~doc:"Output directory for manifest.jsonl and per-job journals.")
      $ Arg.(
          value & opt float 1.0
          & info [ "budget-scale" ] ~docv:"F"
              ~doc:"Scale each scenario's probe/wall budgets by F.")
      $ progress_arg)

(* --- dashboard ------------------------------------------------------------------- *)

let dashboard manifest table out =
  let contents = or_die (read_file manifest) in
  let records, _ = Obs.Aggregate.parse_lenient contents in
  let write what text =
    match out with
    | None -> print_string text
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc text);
        Printf.eprintf "wrote %s (%s)\n" path what
  in
  match table with
  | Some `Csv -> write "csv table" (Obs.Dashboard.table_csv records)
  | Some `Json -> write "json table" (Obs.Dashboard.table_json records)
  | None ->
      let dir = Filename.dirname manifest in
      let runs =
        Obs.Aggregate.jobs_of_manifest records
        |> List.filter_map (fun (j : Obs.Aggregate.job) ->
               Obs.Aggregate.load_file (Filename.concat dir j.j_journal)
               |> Option.map (fun c ->
                      let recs, skipped = Obs.Aggregate.parse_lenient c in
                      ( j.j_journal,
                        Obs.Aggregate.run_of_records recs skipped )))
      in
      write "dashboard" (Obs.Dashboard.render ~manifest:records ~runs)

let dashboard_cmd =
  let doc =
    "Render a campaign manifest (plus its per-job journals) as one \
     self-contained HTML dashboard: repair-rate heat matrix, overlaid \
     fitness trajectories, corpus-wide operator funnel, per-scenario cost. \
     $(b,--table) emits the same aggregate as machine-readable CSV/JSON."
  in
  Cmd.v
    (Cmd.info "dashboard" ~doc)
    Term.(
      const dashboard
      $ Arg.(
          required
          & pos 0 (some file) None
          & info [] ~docv:"MANIFEST"
              ~doc:"Campaign manifest (manifest.jsonl) to aggregate.")
      $ Arg.(
          value
          & opt (some (enum [ ("csv", `Csv); ("json", `Json) ])) None
          & info [ "table" ] ~docv:"FMT"
              ~doc:"Emit a machine-readable table (csv or json) instead of \
                    HTML.")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "o"; "output" ] ~docv:"FILE"
              ~doc:"Write the output here (default: stdout)."))

(* --- main ------------------------------------------------------------------------ *)

let () =
  let doc = "automated repair of defects in Verilog hardware designs" in
  let info = Cmd.info "cirfix" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            simulate_cmd;
            oracle_cmd;
            localize_cmd;
            slice_cmd;
            repair_cmd;
            brute_cmd;
            profile_cmd;
            scenarios_cmd;
            lint_cmd;
            analyze_cmd;
            race_cmd;
            coverage_cmd;
            report_cmd;
            campaign_cmd;
            dashboard_cmd;
          ]))
