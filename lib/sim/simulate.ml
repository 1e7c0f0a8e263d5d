(* One-call simulation front end: parse-free API over elaborate + engine +
   recorder, returning the run outcome, recorded trace, and $display log.

   Two backends share this entry point.  [Event] interprets the AST on the
   effects-fiber scheduler.  [Auto] lowers the elaborated design once
   (levelized combinational schedule + partially-evaluated processes, see
   {!Compile}) and builds a design that differs from an earlier one only
   in process bodies by recompiling just those processes;
   designs the compiler rejects (combinational cycles, multiply-driven
   nets) fall back to the event engine per design, never silently.  The
   repair loop uses [Auto]. *)

type spec = {
  top : string; (* testbench module to elaborate *)
  clock : string; (* qualified clock name, e.g. "tb.clk" *)
  dut_path : string; (* qualified DUT instance, e.g. "tb.dut" *)
}

type backend = Event | Auto

(* What actually ran, for stats/journal. *)
type backend_used =
  | Used_event
  | Used_compiled
  | Used_fallback of string (* compiled requested; reverted, with reason *)

let backend_used_to_string = function
  | Used_event -> "event"
  | Used_compiled -> "compiled"
  | Used_fallback reason -> "fallback:" ^ reason

type result = {
  outcome : Engine.outcome;
  trace : Recorder.trace;
  display : string;
  end_time : int;
  steps : int;
  backend_used : backend_used;
}

type error = Elab_failure of string

(* --- Compiled artifacts: bases and patch-local builds ---------------------

   Each domain keeps a few base artifacts: designs it elaborated and
   compiled in full, each with the design it was built from. A design
   whose modules are physically a base's, but for the bodies of
   always/initial items (all a repair edit changes), is built from that
   base: the same state, scopes, nodes and schedule, with only the changed
   processes compiled ({!Elaborate.rebind}, {!Compile.derive}). Any other
   design is built in full and becomes a base. Identity is physical, so
   recognising a base costs a walk over the design's module and item
   lists, never a hash. Artifacts hold the shared mutable elaborated
   state, so they never cross domains; Domain.DLS gives each Pool worker
   its own without locks, and only one artifact of a domain runs at a
   time. *)

type base = {
  b_design : Verilog.Ast.design;
  b_top : string;
  b_elab : Elaborate.elaborated;
  b_art : (Compile.artifact, string) Stdlib.result;
      (* [Error reason]: the compiler rejected the design, and so every
         design built from it, whose combinational bindings are the same *)
}

let base_capacity = 4

(* Most recently used first. *)
let bases : base list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

(* How many builds were full and how many patch-local; metrics only. *)
let m_build_full = Obs.Metrics.counter "sim.build_full"
let m_build_patch_local = Obs.Metrics.counter "sim.build_patch_local"

let count m = if Obs.Metrics.enabled () then Obs.Metrics.incr m

(* The compiled artifact of [design] (or why the compiler rejects it),
   from a base when one fits. Raises [Runtime.Elab_error] when a full
   build fails to elaborate; such a design does not become a base. *)
let build ~max_steps ~max_time (design : Verilog.Ast.design) ~top =
  let cache = Domain.DLS.get bases in
  let rec find = function
    | [] -> None
    | b :: rest -> (
        if not (String.equal b.b_top top) then find rest
        else
          match Elaborate.rebind b.b_elab ~base_design:b.b_design design with
          | Some derived -> Some (b, derived)
          | None -> find rest)
  in
  match find !cache with
  | Some (b, (elab, changed)) -> (
      cache := b :: List.filter (fun b' -> b' != b) !cache;
      match b.b_art with
      | Error _ as e -> e
      | Ok base ->
          count m_build_patch_local;
          Ok (Compile.derive base elab changed))
  | None ->
      count m_build_full;
      let elab = Elaborate.elaborate ~max_steps ~max_time design ~top in
      let b_art =
        match Compile.compile elab with
        | art -> Ok art
        | exception Compile.Fallback reason -> Error reason
      in
      let b = { b_design = design; b_top = top; b_elab = elab; b_art } in
      cache := List.filteri (fun i _ -> i < base_capacity) (b :: !cache);
      b_art

(* --- Observability -------------------------------------------------------- *)

(* Any sink on: the run keeps scheduler counters. *)
let obs_enabled () = Obs.Profile.recording () || Obs.Metrics.enabled ()

(* The two boundaries of a run, one frame each: elaboration (base lookup
   and a full or patch-local build, or the event engine's elaboration and
   recorder attach) and the run
   (setup, scheduler regions, result packing). The profiler-only region
   frames nest under the run frame and tile it. *)
let site_elab = Obs.Profile.site ~span:"sim" "sim.elaborate"
let site_run = Obs.Profile.site ~span:"sim" ~tiled:true "sim.run"
let prof_setup = Obs.Profile.site "setup"
let prof_collect = Obs.Profile.site "collect"

let leave_elab ~ok ~top =
  Obs.Profile.leave site_elab
    ~args:
      (if not (Obs.Profile.timeline ()) then []
       else if ok then [ ("top", Obs.Json.Str top) ]
       else [ ("ok", Obs.Json.Bool false) ])

(* End a run that started at [t_run]: observe it in Metrics, and close
   the run frame, with any region frame an exception escaped. *)
let leave_run ~framed (st : Runtime.state) t_run =
  if Obs.Metrics.enabled () then begin
    let wall_ns = Obs.Clock.now_ns () - t_run in
    Obs.Metrics.observe (Obs.Metrics.histogram "sim.wall_us") (wall_ns / 1000);
    Obs.Metrics.observe (Obs.Metrics.histogram "sim.steps") st.steps;
    if st.obs_timesteps > 0 then
      Obs.Metrics.observe
        (Obs.Metrics.histogram "sim.events_per_timestep")
        ((st.obs_active_dispatches + st.obs_nba_dispatches) / st.obs_timesteps);
    Obs.Metrics.observe
      (Obs.Metrics.histogram "sim.max_queue_depth")
      st.obs_max_queue
  end;
  if framed then begin
    Obs.Profile.unwind_to site_run;
    Obs.Profile.leave site_run
      ~args:
        (if not (Obs.Profile.timeline ()) then []
         else
           [
             ("steps", Obs.Json.Int st.steps);
             ("end_time", Obs.Json.Int st.now);
             ("active_dispatches", Obs.Json.Int st.obs_active_dispatches);
             ("nba_dispatches", Obs.Json.Int st.obs_nba_dispatches);
             ("timesteps", Obs.Json.Int st.obs_timesteps);
             ("max_queue", Obs.Json.Int st.obs_max_queue);
           ])
  end

let collect (st : Runtime.state) recorder outcome backend_used =
  if st.obs_profile then Obs.Profile.enter prof_collect;
  let r =
    {
      outcome;
      trace = Recorder.trace recorder;
      display = Buffer.contents st.display_log;
      end_time = st.now;
      steps = st.steps;
      backend_used;
    }
  in
  if st.obs_profile then Obs.Profile.leave prof_collect;
  r

(* --- Elaboration --------------------------------------------------------- *)

(* What the elaboration boundary hands the run. *)
type elaborated =
  | Interpreted of Elaborate.elaborated * Recorder.t * backend_used
  | Compiled of Compile.artifact

let elaborate_event ~max_steps ~max_time design (spec : spec) used =
  let elab = Elaborate.elaborate ~max_steps ~max_time design ~top:spec.top in
  let recorder =
    Recorder.attach elab.st ~clock:spec.clock ~instance_path:spec.dut_path
  in
  Interpreted (elab, recorder, used)

(* Raises [Runtime.Elab_error]: a design that fails to elaborate fails
   identically under either backend. *)
let elaborate ~max_steps ~max_time ~backend design (spec : spec) =
  if backend = Event then
    elaborate_event ~max_steps ~max_time design spec Used_event
  else
    match build ~max_steps ~max_time design ~top:spec.top with
    | Ok art -> Compiled art
    | Error reason ->
        elaborate_event ~max_steps ~max_time design spec (Used_fallback reason)

(* --- Run ----------------------------------------------------------------- *)

(* The run frame's contents: setup, the scheduler loop, result packing.
   Runtime scope errors (e.g. a mutant reading an undeclared name
   discovered only when that path executes) also count as failures. *)
let execute ~max_steps ~max_time ~obs (spec : spec) (st : Runtime.state) e =
  let prof = Obs.Profile.enabled () in
  match
    match e with
    | Interpreted (elab, recorder, used) ->
        st.obs_enabled <- obs;
        st.obs_profile <- prof;
        (Engine.run elab, recorder, used)
    | Compiled art ->
        if prof then Obs.Profile.enter prof_setup;
        Compile.reset art ~max_steps ~max_time;
        st.obs_enabled <- obs;
        st.obs_profile <- prof;
        let recorder =
          Recorder.attach st ~clock:spec.clock ~instance_path:spec.dut_path
        in
        if prof then Obs.Profile.leave prof_setup;
        (Compile.run art, recorder, Used_compiled)
  with
  | exception Runtime.Elab_error msg -> Error (Elab_failure msg)
  | outcome, recorder, used -> Ok (collect st recorder outcome used)

(* Simulate [design] under [spec]. Elaboration failures (the simulator
   analogue of a mutant that does not compile) are reported as [Error]. *)
let run ?(max_steps = 2_000_000) ?(max_time = 1_000_000) ?(backend = Event)
    (design : Verilog.Ast.design) (spec : spec) : (result, error) Stdlib.result =
  (* One boolean decides whether the run maintains scheduler counters and
     frames its boundaries; when no sink is active the only overhead left
     in the simulator is a per-dispatch branch on [obs_enabled]. *)
  let obs = obs_enabled () in
  let framed = Obs.Profile.recording () in
  if framed then Obs.Profile.enter site_elab;
  match elaborate ~max_steps ~max_time ~backend design spec with
  | exception Runtime.Elab_error msg ->
      if framed then leave_elab ~ok:false ~top:spec.top;
      Error (Elab_failure msg)
  | e ->
      let st =
        match e with
        | Interpreted (elab, _, _) -> elab.st
        | Compiled art -> art.a_elab.st
      in
      if framed then begin
        leave_elab ~ok:true ~top:spec.top;
        Obs.Profile.enter site_run
      end;
      let t_run = if obs then Obs.Clock.now_ns () else 0 in
      let r = execute ~max_steps ~max_time ~obs spec st e in
      if obs then leave_run ~framed st t_run;
      r

(* Convenience: parse sources then simulate. *)
let run_source ?max_steps ?max_time ?backend ~(source : string) (spec : spec) :
    (result, error) Stdlib.result =
  match Verilog.Parser.parse_design_result source with
  | Error msg -> Error (Elab_failure msg)
  | Ok design -> run ?max_steps ?max_time ?backend design spec

(* --- Profiled runs ------------------------------------------------------ *)

type profiled = {
  used : backend_used; (* of the last profiled run *)
  report : Obs.Profile.report;
  wall_ns : int; (* over all profiled runs *)
  edges : int; (* recorded samples per run x runs *)
  coverage : float; (* attributed / measured wall; 1.0 when no time passed *)
  ns_per_edge : float; (* attributed ns per recorded edge *)
  words_per_edge : float; (* minor-heap words allocated per recorded edge *)
  regions : (string * float) list;
      (* inclusive ns per edge by scheduler region, pipeline order *)
  processes : (string * float) list;
      (* self ns per edge of the process and node frames, hottest first *)
}

(* Pipeline position, not time, orders the regions, so the ledgers of two
   backends line up on the same phases. *)
let region_order =
  [ "elab"; "setup"; "comb"; "active"; "nba"; "monitor"; "advance"; "collect" ]

let region_rank name =
  let rec go i = function
    | [] -> i
    | r :: _ when r = name -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 region_order

(* The region ledger of a report, wherever the simulation frames sit in
   the tree: the elaboration frame is [elab], and each frame directly
   under a run frame is its region, inclusive of the process and node
   frames nested in it. The run frame's own time (before its first
   region opens) belongs to no region. *)
let sim_regions (r : Obs.Profile.report) =
  let elab = Obs.Profile.site_name site_elab
  and run = Obs.Profile.site_name site_run in
  Obs.Profile.group
    (fun p ->
      let at_path rest = if rest = [] then p.p_count else 0 in
      let rec go = function
        | s :: rest when s = elab -> Some ("elab", p.p_ns, at_path rest)
        | s :: region :: rest when s = run ->
            Some (region, p.p_ns, at_path rest)
        | _ :: rest -> go rest
        | [] -> None
      in
      go p.p_stack)
    r

(* Self time of the process and node frames (always/initial bodies,
   NBA commits, generated and compiled nodes), hottest first. *)
let proc_frames (r : Obs.Profile.report) =
  List.filter
    (fun (name, _, _) ->
      List.exists
        (fun pre -> String.starts_with ~prefix:pre name && name <> pre)
        [ "proc:"; "init:"; "commit:"; "gen:"; "node:" ])
    (Obs.Profile.by_leaf r)

(* One unprofiled warm-up run, so that a compiled cache miss does not
   pollute the ledger, then [runs] profiled runs under one wall-clock
   measurement, summarized per recorded edge. [Error] when the warm-up
   fails to elaborate. *)
let profile ~runs ~backend (design : Verilog.Ast.design) (spec : spec) :
    (profiled, error) Stdlib.result =
  match run ~backend design spec with
  | Error e -> Error e
  | Ok warm ->
      Obs.Profile.start ();
      let t0 = Obs.Clock.now_ns () in
      let last = ref warm in
      for _ = 1 to runs do
        match run ~backend design spec with
        | Ok r -> last := r
        | Error (Elab_failure e) -> failwith e
      done;
      let wall_ns = Obs.Clock.now_ns () - t0 in
      Obs.Profile.stop ();
      let report = Obs.Profile.report () in
      let edges = runs * List.length !last.trace in
      let per_edge ns =
        if edges = 0 then 0. else float_of_int ns /. float_of_int edges
      in
      let per_edge_rows = List.map (fun (n, ns, _) -> (n, per_edge ns)) in
      Ok
        {
          used = !last.backend_used;
          report;
          wall_ns;
          edges;
          coverage =
            (if wall_ns = 0 then 1.0
             else float_of_int report.r_total_ns /. float_of_int wall_ns);
          ns_per_edge = per_edge report.r_total_ns;
          words_per_edge =
            (if edges = 0 then 0.
             else report.r_gc.gd_minor_words /. float_of_int edges);
          regions =
            sim_regions report
            |> List.stable_sort (fun (a, _, _) (b, _, _) ->
                   compare (region_rank a) (region_rank b))
            |> per_edge_rows;
          processes = per_edge_rows (proc_frames report);
        }
