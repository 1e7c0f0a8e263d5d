(* The behavioural interpreter. Each initial/always process runs as an
   OCaml 5 effects fiber: evaluating a timing control performs a [Suspend]
   effect whose one-shot continuation is parked in the scheduler (on a time
   slot or on a variable's waiter list) until the simulator resumes it. *)

open Logic4
open Verilog.Ast
open Effect
open Effect.Deep

type wait =
  | WDelay of int
  | WEdges of (Runtime.var * Runtime.edge) list
  | WEvent of Runtime.var

type _ Effect.t += Suspend : wait -> unit Effect.t

let suspend w = perform (Suspend w)

(* --- System task helpers ------------------------------------------------ *)

let format_value fmt_char (v : Vec.t) =
  match fmt_char with
  | 'b' -> Vec.to_string v
  | 'd' | 't' -> (
      match Vec.to_int v with
      | Some n -> string_of_int n
      | None -> String.make 1 (if Vec.has_xz v then 'x' else '?'))
  | 'h' | 'x' -> (
      match Vec.to_int v with
      | Some n -> Printf.sprintf "%x" n
      | None -> "x")
  | _ -> Vec.to_string v

(* Render $display-style arguments: a leading format string consumes
   subsequent values at each % directive. *)
let render_args st sc (args : expr list) : string =
  let buf = Buffer.create 32 in
  (match args with
  | { e = String fmt; _ } :: rest ->
      let values = ref (List.map (Eval.eval st sc) rest) in
      let next_value () =
        match !values with
        | [] -> Vec.zero 1
        | v :: tl ->
            values := tl;
            v
      in
      let i = ref 0 in
      let n = String.length fmt in
      while !i < n do
        if fmt.[!i] = '%' && !i + 1 < n then (
          (* Skip width modifiers like %0d, %2d. *)
          let j = ref (!i + 1) in
          while !j < n && fmt.[!j] >= '0' && fmt.[!j] <= '9' do
            incr j
          done;
          if !j < n then (
            let c = Char.lowercase_ascii fmt.[!j] in
            if c = '%' then Buffer.add_char buf '%'
            else if c = 'm' then Buffer.add_string buf sc.Runtime.sc_path
            else Buffer.add_string buf (format_value c (next_value ()));
            i := !j + 1)
          else i := n)
        else (
          Buffer.add_char buf fmt.[!i];
          incr i)
      done
  | _ ->
      List.iteri
        (fun i e ->
          if i > 0 then Buffer.add_char buf ' ';
          Buffer.add_string buf (format_value 'd' (Eval.eval st sc e)))
        args);
  Buffer.contents buf

(* --- Sensitivity resolution --------------------------------------------- *)

let edge_target st sc (e : expr) : Runtime.var =
  ignore st;
  match e.e with
  | Ident n -> Runtime.scope_var sc n
  | Index (n, _) | RangeSel (n, _, _) -> Runtime.scope_var sc n
  | _ ->
      raise
        (Runtime.Elab_error
           ("edge expression must name a signal: " ^ Verilog.Pp.expr_to_string e))

(* Variables read anywhere in a statement, for @-star sensitivity. *)
let stmt_support sc (s : stmt) : Runtime.var list =
  Verilog.Ast_utils.fold_stmt
    (fun acc _ -> acc)
    (fun acc (e : expr) ->
      match e.e with
      | Ident n | Index (n, _) | RangeSel (n, _, _) -> n :: acc
      | _ -> acc)
    [] s
  |> List.sort_uniq compare
  |> List.filter_map (fun name ->
         match Runtime.scope_find sc name with
         | Some (Runtime.Bvar v) when v.Runtime.v_kind <> Runtime.NamedEvent ->
             Some v
         | _ -> None)

let resolve_wait st sc (specs : event_spec list) (body : stmt option) : wait =
  let named_event e =
    match e.e with
    | Ident n -> (
        match Runtime.scope_find sc n with
        | Some (Runtime.Bvar v) when v.Runtime.v_kind = Runtime.NamedEvent ->
            Some v
        | _ -> None)
    | _ -> None
  in
  match specs with
  | [ Level e ] when named_event e <> None ->
      WEvent (Option.get (named_event e))
  | _ ->
      let edges =
        List.concat_map
          (fun spec ->
            match spec with
            | Posedge e -> [ (edge_target st sc e, Runtime.Pos) ]
            | Negedge e -> [ (edge_target st sc e, Runtime.Neg) ]
            | Level e -> (
                match named_event e with
                | Some v -> [ (v, Runtime.Any) ]
                | None ->
                    List.map
                      (fun v -> (v, Runtime.Any))
                      (Elaborate.expr_support sc e))
            | AnyChange -> (
                match body with
                | Some b -> List.map (fun v -> (v, Runtime.Any)) (stmt_support sc b)
                | None -> []))
          specs
      in
      if edges = [] then
        raise (Runtime.Elab_error "empty sensitivity list resolves to nothing");
      WEdges edges

(* --- Statement execution ------------------------------------------------ *)

let rec exec (st : Runtime.state) (sc : Runtime.scope) (s : stmt) : unit =
  Runtime.tick st;
  Runtime.cover st s.sid;
  match s.s with
  | Null -> ()
  | Block (_, body) -> List.iter (exec st sc) body
  | Blocking (lhs, delay, rhs) -> (
      let value = Eval.eval st sc rhs in
      match delay with
      | None -> Eval.assign st sc lhs value
      | Some d ->
          (* Intra-assignment delay: RHS evaluated now, store after #d. *)
          let n = Option.value (Eval.eval_int st sc d) ~default:0 in
          if n > 0 then suspend (WDelay n);
          Eval.assign st sc lhs value)
  | Nonblocking (lhs, delay, rhs) ->
      let value = Eval.eval st sc rhs in
      let _, store = Eval.prepare_store st sc lhs in
      let n =
        match delay with
        | None -> 0
        | Some d -> Option.value (Eval.eval_int st sc d) ~default:0
      in
      Runtime.schedule_nba st ~time:(st.now + n) (fun () -> store value)
  | If (c, t, e) -> (
      match Eval.eval_bool st sc c with
      | Some true -> Option.iter (exec st sc) t
      | Some false | None -> Option.iter (exec st sc) e)
  | CaseStmt (kind, subject, arms, default) ->
      let sv = Eval.eval st sc subject in
      let matches pattern =
        let pv = Eval.eval st sc pattern in
        let w = max (Vec.width sv) (Vec.width pv) in
        let wild (b : Bit.t) =
          match kind with
          | Case -> false
          | Casez -> b = Bit.Z
          | Casex -> b = Bit.X || b = Bit.Z
        in
        let rec go i =
          if i >= w then true
          else (
            let a = Vec.get sv i and b = Vec.get pv i in
            (wild a || wild b || Bit.equal a b) && go (i + 1))
        in
        go 0
      in
      let rec try_arms = function
        | [] -> Option.iter (exec st sc) default
        | arm :: rest ->
            if List.exists matches arm.patterns then
              Option.iter (exec st sc) arm.arm_body
            else try_arms rest
      in
      try_arms arms
  | For (init, cond, step, body) ->
      exec st sc init;
      let rec loop () =
        Runtime.tick st;
        match Eval.eval_bool st sc cond with
        | Some true ->
            exec st sc body;
            exec st sc step;
            loop ()
        | Some false | None -> ()
      in
      loop ()
  | While (cond, body) ->
      let rec loop () =
        Runtime.tick st;
        match Eval.eval_bool st sc cond with
        | Some true ->
            exec st sc body;
            loop ()
        | Some false | None -> ()
      in
      loop ()
  | Repeat (count, body) -> (
      match Eval.eval_int st sc count with
      | None -> ()
      | Some n ->
          for _ = 1 to n do
            Runtime.tick st;
            exec st sc body
          done)
  | Forever body ->
      let rec loop () =
        Runtime.tick st;
        exec st sc body;
        loop ()
      in
      loop ()
  | Delay (d, k) ->
      let n = Option.value (Eval.eval_int st sc d) ~default:0 in
      if n > 0 then suspend (WDelay n)
      else (
        (* #0 yields to the end of the current active region. *)
        suspend (WDelay 0));
      Option.iter (exec st sc) k
  | EventCtrl (specs, k) ->
      suspend (resolve_wait st sc specs k);
      Option.iter (exec st sc) k
  | Wait (cond, k) ->
      let rec loop () =
        Runtime.tick st;
        match Eval.eval_bool st sc cond with
        | Some true -> ()
        | Some false | None ->
            let support = Elaborate.expr_support sc cond in
            if support = [] then
              raise (Runtime.Elab_error "wait() on a constant that is false");
            suspend (WEdges (List.map (fun v -> (v, Runtime.Any)) support));
            loop ()
      in
      loop ();
      Option.iter (exec st sc) k
  | Trigger name -> (
      match Runtime.scope_find sc name with
      | Some (Runtime.Bvar v) when v.Runtime.v_kind = Runtime.NamedEvent ->
          Runtime.trigger_event st v
      | _ -> raise (Runtime.Elab_error ("-> target is not an event: " ^ name)))
  | SysTask (task, args) -> exec_systask st sc task args

and exec_systask st sc task args =
  match task with
  | "$display" ->
      Runtime.display st (render_args st sc args);
      Runtime.display st "\n"
  | "$write" -> Runtime.display st (render_args st sc args)
  | "$monitor" ->
      (* Re-render at the end of any time step in which an argument
         changed. *)
      let last = ref None in
      let hook (st : Runtime.state) =
        let line = render_args st sc args in
        if !last <> Some line then (
          last := Some line;
          Runtime.display st line;
          Runtime.display st "\n")
      in
      st.end_of_step_hooks <- st.end_of_step_hooks @ [ hook ]
  | "$finish" | "$stop" -> raise Runtime.Finish_called
  | "$dumpfile" | "$dumpvars" | "$dumpon" | "$dumpoff" | "$timeformat"
  | "$readmemh" | "$readmemb" ->
      () (* waveform/memory-image tasks are no-ops in this simulator *)
  | _ -> () (* unknown tasks are ignored, like most simulators' defaults *)

(* --- Process spawning and the run loop ----------------------------------- *)

let park ?prof (st : Runtime.state) (w : wait) (resume : unit -> unit) =
  let resumed = ref false in
  let resume () =
    if !resumed then (
      let what =
        match w with
        | WDelay n -> Printf.sprintf "WDelay %d" n
        | WEvent v -> "WEvent " ^ v.Runtime.v_name
        | WEdges l ->
            "WEdges "
            ^ String.concat "," (List.map (fun (v, _) -> v.Runtime.v_name) l)
      in
      raise (Runtime.Elab_error ("scheduler invariant: double resume on " ^ what)))
    else (
      resumed := true;
      resume ())
  in
  (* Profiling: each resumed segment runs under the process's frame, so
     fiber time lands on "region;proc" paths. [Fun.protect] (not a bare
     leave) because $finish propagates out of segments as an exception. *)
  let resume =
    match prof with
    | None -> resume
    | Some site ->
        fun () ->
          Obs.Profile.enter site;
          Fun.protect ~finally:(fun () -> Obs.Profile.leave site) resume
  in
  match w with
  | WDelay n ->
      Runtime.schedule_at st ~time:(st.now + n) resume
  | WEvent v -> Runtime.add_waiter st v Runtime.Any resume
  | WEdges edges ->
      (* The whole group shares one fired flag: a single wake-up per
         suspension, and sibling entries become purgeable immediately. *)
      let fired = ref false in
      let seen = Hashtbl.create 4 in
      List.iter
        (fun ((v : Runtime.var), edge) ->
          if not (Hashtbl.mem seen (v.Runtime.v_name, edge)) then (
            Hashtbl.add seen (v.Runtime.v_name, edge) ();
            Runtime.add_waiter ~fired st v edge resume))
        edges

(* [prof]: the profiler site charged for every fiber segment of this
   process. *)
let spawn ?prof (st : Runtime.state) (body : unit -> unit) =
  let fiber () =
    match_with body ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend w ->
                Some
                  (fun (k : (a, _) continuation) ->
                    park ?prof st w (fun () -> continue k ()))
            | _ -> None);
      }
  in
  let fiber =
    match prof with
    | None -> fiber
    | Some site ->
        fun () ->
          Obs.Profile.enter site;
          Fun.protect ~finally:(fun () -> Obs.Profile.leave site) fiber
  in
  Runtime.schedule_active st fiber

type outcome =
  | Finished (* $finish reached *)
  | Quiescent (* event queue drained *)
  | Time_limit_reached
  | Budget_exceeded of string

let launch (elab : Elaborate.elaborated) =
  let st = elab.st in
  (* Continuous assignments: initial evaluation at time 0 plus change
     subscriptions. *)
  List.iter
    (fun (cb : Elaborate.comb) ->
      List.iter (fun v -> Runtime.subscribe v cb.cb_eval) cb.cb_support;
      Runtime.schedule_active st cb.cb_eval)
    elab.combs;
  (* Profiler identity: one site per source process, named by its scope
     and the root statement's node id, so event-engine and compiled runs
     attribute to the same labels. Sites are only interned when the
     profiler is live for this run. *)
  let prof_site kind (p : Elaborate.process) =
    if st.obs_profile then
      Some
        (Obs.Profile.site
           (Printf.sprintf "%s:%s#%d" kind p.pr_scope.Runtime.sc_path
              p.pr_body.Verilog.Ast.sid))
    else None
  in
  List.iter
    (fun (p : Elaborate.process) ->
      match p.pr_kind with
      | Elaborate.PInitial ->
          spawn ?prof:(prof_site "init" p) st (fun () ->
              exec st p.pr_scope p.pr_body)
      | Elaborate.PAlways ->
          spawn ?prof:(prof_site "proc" p) st (fun () ->
              let rec loop () =
                exec st p.pr_scope p.pr_body;
                loop ()
              in
              loop ()))
    elab.procs

let prof_setup = Obs.Profile.site "setup"

let run (elab : Elaborate.elaborated) : outcome =
  let st = elab.st in
  if st.obs_profile then begin
    Obs.Profile.enter prof_setup;
    launch elab;
    Obs.Profile.leave prof_setup
  end
  else launch elab;
  try
    Runtime.run_loop st;
    if st.finished then Finished
    else if st.horizon <> [] then Time_limit_reached
    else Quiescent
  with Runtime.Sim_budget_exceeded msg -> Budget_exceeded msg
