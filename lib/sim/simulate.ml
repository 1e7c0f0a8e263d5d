(* One-call simulation front end: parse-free API over elaborate + engine +
   recorder, returning the run outcome, recorded trace, and $display log.

   Two backends share this entry point.  [Event] interprets the AST on the
   effects-fiber scheduler.  [Compiled] lowers the elaborated design once
   (levelized combinational schedule + partially-evaluated processes, see
   {!Compile}) and reuses the artifact across runs of the same design;
   designs the compiler rejects (combinational cycles, multiply-driven
   nets) fall back to the event engine per design, never silently.  [Auto]
   is [Compiled]-with-fallback and is what the repair loop uses. *)

type spec = {
  top : string; (* testbench module to elaborate *)
  clock : string; (* qualified clock name, e.g. "tb.clk" *)
  dut_path : string; (* qualified DUT instance, e.g. "tb.dut" *)
}

type backend = Event | Compiled | Auto

let backend_to_string = function
  | Event -> "event"
  | Compiled -> "compiled"
  | Auto -> "auto"

let backend_of_string = function
  | "event" -> Some Event
  | "compiled" -> Some Compiled
  | "auto" -> Some Auto
  | _ -> None

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

(* --- Compiled-artifact cache -------------------------------------------- *)

(* Per-domain LRU keyed by the design's structural hash: artifacts hold the
   shared mutable elaborated state, so they must never cross domains, and
   Domain.DLS gives each Pool worker its own cache without locks.  Repeat
   runs of one design (the golden oracle, equivalence sweeps, benchmarks)
   skip elaboration and compilation entirely. *)

let cache_capacity = 4

type cache_entry = (Compile.artifact, string) Stdlib.result

let artifact_cache : (string * cache_entry) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* Hashing the whole AST on every run would dominate short simulations, so
   the key is memoized per physical design value: repeated runs of the same
   parsed design (benchmarks, oracle replays, equivalence sweeps) pay the
   structural hash once. *)
let design_key_memo : (Verilog.Ast.design * string * string) option ref
    Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let design_key (design : Verilog.Ast.design) ~top =
  let memo = Domain.DLS.get design_key_memo in
  match !memo with
  | Some (d, t, key) when d == design && String.equal t top -> key
  | _ ->
      let key =
        top ^ "|"
        ^ String.concat "+" (List.map Verilog.Ast_utils.structural_hash design)
      in
      memo := Some (design, top, key);
      key

let cache_find key =
  let cache = Domain.DLS.get artifact_cache in
  match List.assoc_opt key !cache with
  | Some entry ->
      (* Move to front. *)
      cache := (key, entry) :: List.remove_assoc key !cache;
      Some entry
  | None -> None

let cache_add key entry =
  let cache = Domain.DLS.get artifact_cache in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  cache := take cache_capacity ((key, entry) :: List.remove_assoc key !cache)

(* --- Observability helpers ---------------------------------------------- *)

let obs_enabled () =
  Obs.Trace.enabled () || Obs.Metrics.enabled () || Obs.Profile.enabled ()

(* Elaboration/compilation and result packing run outside the scheduler
   loop yet are real per-run cost (the event backend re-elaborates every
   run); charging them keeps the ledger's region sum close to measured
   wall time. *)
let prof_elab = Obs.Profile.site "elab"
let prof_collect = Obs.Profile.site "collect"
let prof_setup = Obs.Profile.site "setup"

let prof_frame site f =
  if Obs.Profile.enabled () then begin
    Obs.Profile.enter site;
    Fun.protect ~finally:(fun () -> Obs.Profile.leave site) f
  end
  else f ()

let obs_elab_done ~ok ~top t_elab =
  if Obs.Trace.enabled () then
    Obs.Trace.complete ~cat:"sim"
      ~args:
        (if ok then [ ("top", Obs.Json.Str top) ]
         else [ ("ok", Obs.Json.Bool false) ])
      ~name:"sim.elaborate" t_elab

let obs_run_done (st : Runtime.state) t_run =
  if Obs.Trace.enabled () then
    Obs.Trace.complete ~cat:"sim"
      ~args:
        [
          ("steps", Obs.Json.Int st.steps);
          ("end_time", Obs.Json.Int st.now);
          ("active_dispatches", Obs.Json.Int st.obs_active_dispatches);
          ("nba_dispatches", Obs.Json.Int st.obs_nba_dispatches);
          ("timesteps", Obs.Json.Int st.obs_timesteps);
          ("max_queue", Obs.Json.Int st.obs_max_queue);
        ]
      ~name:"sim.run" t_run;
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
  end

let pack_result (st : Runtime.state) recorder outcome backend_used =
  {
    outcome;
    trace = Recorder.trace recorder;
    display = Buffer.contents st.display_log;
    end_time = st.now;
    steps = st.steps;
    backend_used;
  }

(* --- Event backend ------------------------------------------------------ *)

let run_event ~max_steps ~max_time ~obs design (spec : spec)
    backend_used : (result, error) Stdlib.result =
  let t_elab = if obs && Obs.Trace.enabled () then Obs.Trace.begin_ () else 0 in
  match
    prof_frame prof_elab (fun () ->
        try
          let elab =
            Elaborate.elaborate ~max_steps ~max_time design ~top:spec.top
          in
          let recorder =
            Recorder.attach elab.st ~clock:spec.clock
              ~instance_path:spec.dut_path
          in
          Ok (elab, recorder)
        with Runtime.Elab_error msg -> Error (Elab_failure msg))
  with
  | Error e ->
      if obs then obs_elab_done ~ok:false ~top:spec.top t_elab;
      Error e
  | Ok (elab, recorder) -> (
      if obs then begin
        elab.st.obs_enabled <- true;
        elab.st.obs_profile <- Obs.Profile.enabled ();
        obs_elab_done ~ok:true ~top:spec.top t_elab
      end;
      let t_run = if obs && Obs.Trace.enabled () then Obs.Trace.begin_ () else 0 in
      (* Runtime scope errors (e.g. a mutant reading an undeclared name
         discovered only when that path executes) also count as failures. *)
      match Engine.run elab with
      | exception Runtime.Elab_error msg ->
          if obs then obs_run_done elab.st t_run;
          Error (Elab_failure msg)
      | outcome ->
          if obs then obs_run_done elab.st t_run;
          Ok
            (prof_frame prof_collect (fun () ->
                 pack_result elab.st recorder outcome backend_used)))

(* --- Compiled backend --------------------------------------------------- *)

let run_artifact ~max_steps ~max_time ~obs (art : Compile.artifact)
    (spec : spec) : (result, error) Stdlib.result =
  let st = art.Compile.a_elab.Elaborate.st in
  match
    prof_frame prof_setup (fun () ->
        Compile.reset art ~max_steps ~max_time;
        st.obs_enabled <- obs;
        st.obs_profile <- Obs.Profile.enabled ();
        try
          Ok (Recorder.attach st ~clock:spec.clock ~instance_path:spec.dut_path)
        with Runtime.Elab_error msg -> Error (Elab_failure msg))
  with
  | Error e -> Error e
  | Ok recorder -> (
      let t_run = if obs && Obs.Trace.enabled () then Obs.Trace.begin_ () else 0 in
      match Compile.run art with
      | exception Runtime.Elab_error msg ->
          if obs then obs_run_done st t_run;
          Error (Elab_failure msg)
      | outcome ->
          if obs then obs_run_done st t_run;
          Ok
            (prof_frame prof_collect (fun () ->
                 pack_result st recorder outcome Used_compiled)))

(* Simulate [design] under [spec]. Elaboration failures (the simulator
   analogue of a mutant that does not compile) are reported as [Error]. *)
let run ?(max_steps = 2_000_000) ?(max_time = 1_000_000) ?(backend = Event)
    (design : Verilog.Ast.design) (spec : spec) : (result, error) Stdlib.result =
  (* One boolean decides whether the run maintains scheduler counters and
     emits spans; when no sink is active the only overhead left in the
     simulator is a per-dispatch branch on [obs_enabled]. *)
  let obs = obs_enabled () in
  if backend = Event then
    run_event ~max_steps ~max_time ~obs design spec Used_event
  else begin
    (* Key hashing and the cache probe are real per-run cost of the
       compiled path; charge them as (amortized) elaboration. *)
    let key, cached =
      prof_frame prof_elab (fun () ->
          let key = design_key design ~top:spec.top in
          (key, cache_find key))
    in
    let entry =
      match cached with
      | Some entry -> Ok entry
      | None -> (
          let t_elab =
            if obs && Obs.Trace.enabled () then Obs.Trace.begin_ () else 0
          in
          match
            prof_frame prof_elab (fun () ->
                let elab =
                  Elaborate.elaborate ~max_steps ~max_time design ~top:spec.top
                in
                Compile.compile elab)
          with
          | art ->
              if obs then obs_elab_done ~ok:true ~top:spec.top t_elab;
              let entry : cache_entry = Ok art in
              cache_add key entry;
              Ok entry
          | exception Compile.Fallback reason ->
              if obs then obs_elab_done ~ok:true ~top:spec.top t_elab;
              let entry : cache_entry = Error reason in
              cache_add key entry;
              Ok entry
          | exception Runtime.Elab_error msg ->
              (* Fails identically under either backend; report directly. *)
              if obs then obs_elab_done ~ok:false ~top:spec.top t_elab;
              Error (Elab_failure msg))
    in
    match entry with
    | Error e -> Error e
    | Ok (Ok art) -> run_artifact ~max_steps ~max_time ~obs art spec
    | Ok (Error reason) ->
        run_event ~max_steps ~max_time ~obs design spec (Used_fallback reason)
  end

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
}

(* One unprofiled warm-up run, so that a compiled cache miss does not
   pollute the ledger, then [runs] profiled runs under one wall-clock
   measurement. [Error] when the warm-up fails to elaborate. *)
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
      Ok
        {
          used = !last.backend_used;
          report = Obs.Profile.report ();
          wall_ns;
          edges = runs * List.length !last.trace;
        }

(* Self time of the process and node frames (always/initial bodies,
   NBA commits, generated and compiled nodes), hottest first. *)
let proc_frames (r : Obs.Profile.report) =
  List.filter
    (fun (name, _, _) ->
      List.exists
        (fun pre -> String.starts_with ~prefix:pre name && name <> pre)
        [ "proc:"; "init:"; "commit:"; "gen:"; "node:" ])
    (Obs.Profile.by_leaf r)
