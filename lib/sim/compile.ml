(* The compiled simulation backend.

   [compile] lowers an elaborated design into a reusable artifact:

   - Combinational bindings (continuous assigns, declaration initializers,
     port bindings) are levelized: topologically sorted by driver
     dependencies and lowered to a flat schedule of closures that read and
     store the runtime's [Logic4.Packed] values (two bitplanes per net)
     directly.  A single settle pass walks the schedule in dependency
     order, so the event scheduler never pays per-net subscriber cascades
     -- one subscriber thunk per design re-runs the whole levelized
     schedule when an external input changes.

   - Behavioural processes are partially evaluated: every identifier is
     resolved to its [Runtime.var] once at compile time, every expression
     becomes a closure, every sensitivity list is resolved once.  Clocked
     and clock-generator bodies run as direct scheduler callbacks; other
     processes run as effects fibers on the [Engine] scheduler.  Delays,
     named events, mixed-edge sensitivity, NBA commit ordering and
     $display output are shared with (and byte-identical to) the event
     backend.

   Compile-time constant folding evaluates input-free subexpressions once;
   levelized nodes whose full support is constant run only in the time-0
   pass; nodes whose targets nothing reads are dropped unless evaluating
   them may raise.  Conditions the event engine only reports at runtime
   (undeclared names reached by a mutant, unsupported system functions,
   over-wide selects) are compiled to closures that raise at execution
   time, so candidate fitness never diverges between backends.

   Two constructs defeat levelization and raise [Fallback] so the caller
   reverts the whole design to the event engine: combinational cycles and
   multiply-driven combinational nets. *)

open Logic4
open Verilog.Ast

exception Fallback of string

type stats = {
  c_nodes : int; (* combinational nodes lowered *)
  c_const : int; (* nodes evaluated only in the time-0 pass *)
  c_dead : int; (* nodes dropped: no live reader *)
  c_levels : int; (* depth of the levelized schedule *)
}

type node = {
  n_eval : unit -> unit; (* evaluate and store via Runtime.set_var *)
  n_targets : Runtime.var list;
  n_support : Runtime.var list;
  n_impure : bool; (* reads $time/$random or array words: no dirty check *)
  n_raises : bool; (* evaluation may raise: live even if nothing reads it *)
  n_names : string list; (* local names of targets, for tests/debug *)
  n_supp_arr : Runtime.var array; (* support, for the per-node dirty scan *)
  n_seen : Packed.t array; (* support values at last evaluation *)
  mutable n_const : bool;
  mutable n_level : int;
  mutable n_prof : Obs.Profile.site option;
      (* profiler frame per evaluation; (re)assigned at every launch so a
         cached artifact honours the current profiling state *)
}

(* One op of a delay-loop process body: either a suspend-free statement
   closure, or a #d delay (budget/coverage entry plus delay evaluation,
   then the delayed statement). *)
type dop =
  | Drun of (unit -> unit)
  | Dwait of (unit -> int) * (unit -> unit)

(* A compiled process.  [Pfiber] runs on the effects scheduler exactly as
   the event engine runs it.  The two cyclic shapes instead run as direct
   scheduler callbacks -- no continuation capture, park or resume per
   iteration, which is where an event-driven simulator spends most of a
   clock cycle:

   [Pedge]  -- always @(specs) <suspend-free stmt>: the register commit
               and always-comb shape.  Re-arms its (statically resolved)
               waiter group after each execution.
   [Pdelay] -- always <chain of suspend-free stmts and #d delays>: the
               clock/stimulus generator shape.  Self-reschedules via
               [Runtime.schedule_at]. *)
type cproc =
  | Pfiber of string * (unit -> unit)
    (* profiler label, compiled body (an always body loops forever) *)
  | Pedge of {
      pe_tick : unit -> unit; (* budget/coverage entry of the @() stmt *)
      pe_wait : Engine.wait; (* resolved, deduplicated sensitivity *)
      pe_body : unit -> unit; (* compiled suspend-free body *)
      pe_label : string; (* profiler label, "commit:<scope>#<sid>" *)
    }
  | Pdelay of {
      pd_entry : unit -> unit;
      pd_ops : dop array;
      pd_label : string; (* profiler label, "gen:<scope>#<sid>" *)
    }

type artifact = {
  a_elab : Elaborate.elaborated;
  a_t0 : node array; (* live nodes, topo order: the time-0 pass *)
  a_dynamic : node array; (* live non-const nodes, topo order *)
  a_inputs : Runtime.var array; (* external inputs of the comb cloud *)
  a_procs : cproc list;
  a_stats : stats;
}

(* --- Compile-time environment ------------------------------------------ *)

type env = {
  st : Runtime.state;
  sc : Runtime.scope;
  reads : (string, Runtime.var) Hashtbl.t; (* vars read by any process *)
  writes : (string, Runtime.var) Hashtbl.t; (* vars written by any process *)
}

let note_read env v = Hashtbl.replace env.reads v.Runtime.v_name v
let note_write env v = Hashtbl.replace env.writes v.Runtime.v_name v

(* --- Expressions -------------------------------------------------------- *)

(* A compiled expression: a closure over packed values, plus whether it is
   input-free (safe to fold at compile time), whether it is impure (reads
   simulation time, the $random stream, or array words -- all invisible to
   the var-level support set), and whether evaluating it may raise (a node
   computing it then stays live even if nothing reads its targets, because
   the event engine evaluates every binding and reports the error). *)
type cexpr = { run : unit -> Packed.t; cconst : bool; cimpure : bool; craise : bool }

let dynamic run = { run; cconst = false; cimpure = false; craise = false }
let impure run = { (dynamic run) with cimpure = true }
let const_p p = { (dynamic (fun () -> p)) with cconst = true }

(* [run] over subexpressions [cs]: constant, impure or raising when they are. *)
let combine run cs =
  {
    run;
    cconst = List.for_all (fun c -> c.cconst) cs;
    cimpure = List.exists (fun c -> c.cimpure) cs;
    craise = List.exists (fun c -> c.craise) cs;
  }

(* Defer an elaboration error to execution time: the event engine only
   reports it when (and if) the statement actually runs. *)
let raise_at_runtime msg =
  { (dynamic (fun () -> raise (Runtime.Elab_error msg))) with craise = true }

let rec compile_expr (env : env) (e : expr) : cexpr =
  let ce =
    match e.e with
    | Number v -> const_p (Packed.of_vec v)
    | IntLit n -> const_p (Packed.of_int Eval.int_width n)
    | String _ -> const_p (Packed.zero 1)
    | Ident name -> (
        match Runtime.scope_find env.sc name with
        | Some (Bconst c) -> const_p (Packed.of_vec c)
        | Some (Bvar v) ->
            if v.v_kind = Runtime.NamedEvent then
              raise_at_runtime ("named event used as value: " ^ name)
            else (
              note_read env v;
              dynamic (fun () -> v.v_value))
        | None -> raise_at_runtime ("undeclared identifier " ^ name))
    | Index (name, idx) -> (
        let ci = compile_expr env idx in
        match Runtime.scope_find env.sc name with
        | Some (Bconst c) ->
            combine
              (fun () ->
                match Packed.to_int (ci.run ()) with
                | None -> Packed.all_x 1
                | Some i -> Packed.of_bit (Vec.get c i))
              [ ci ]
        | Some (Bvar v) ->
            note_read env v;
            if v.v_array <> None then
              {
                (impure (fun () ->
                     match Packed.to_int (ci.run ()) with
                     | None -> Packed.all_x v.v_width
                     | Some i -> Runtime.get_array_word v i))
                with
                craise = ci.craise;
              }
            else
              {
                (combine
                   (fun () ->
                     match Packed.to_int (ci.run ()) with
                     | None -> Packed.all_x 1
                     | Some i ->
                         let si = Runtime.storage_index v i in
                         if si < 0 || si >= v.v_width then Packed.all_x 1
                         else Packed.select v.v_value ~msb:si ~lsb:si)
                   [ ci ])
                with
                cconst = false;
              }
        | None ->
            (* The event engine evaluates the index before failing. *)
            let run () =
              ignore (ci.run ());
              raise (Runtime.Elab_error ("undeclared identifier " ^ name))
            in
            { (dynamic run) with craise = true })
    | RangeSel (name, me, le) -> (
        match Runtime.scope_find env.sc name with
        | Some (Bvar v) ->
            note_read env v;
            let cm = compile_expr env me and cl = compile_expr env le in
            let run () =
              match (Packed.to_int (cm.run ()), Packed.to_int (cl.run ())) with
              | Some m, Some l ->
                  let a = Runtime.storage_index v m
                  and b = Runtime.storage_index v l in
                  let hi = max a b and lo = min a b in
                  Eval.check_width "part-select" (hi - lo + 1);
                  Packed.select v.v_value ~msb:hi ~lsb:lo
              | _ -> Packed.all_x 1
            in
            let ce = { (combine run [ cm; cl ]) with cconst = false } in
            (* Constant bounds are width-checked once, here. *)
            let too_wide () =
              match run () with _ -> false | exception Runtime.Elab_error _ -> true
            in
            {
              ce with
              craise = ce.craise || (not (cm.cconst && cl.cconst)) || too_wide ();
            }
        | Some (Bconst _) ->
            raise_at_runtime
              (Printf.sprintf "%s is a parameter, not a variable" name)
        | None ->
            raise_at_runtime
              (Printf.sprintf "undeclared identifier %s in %s" name
                 env.sc.Runtime.sc_path))
    | Unop (op, a) ->
        let ca = compile_expr env a in
        let f = Eval.unop op in
        combine (fun () -> f (ca.run ())) [ ca ]
    | Binop (op, a, b) -> (
        let ca = compile_expr env a and cb = compile_expr env b in
        match op with
        | Land ->
            (* Short-circuit like the interpreter (no observable side
               effects either way, but keep the fast exit). *)
            combine
              (fun () ->
                let av = ca.run () in
                if Packed.to_bool av = Some false then Packed.of_int 1 0
                else Packed.log_and av (cb.run ()))
              [ ca; cb ]
        | Lor ->
            combine
              (fun () ->
                let av = ca.run () in
                if Packed.to_bool av = Some true then Packed.of_int 1 1
                else Packed.log_or av (cb.run ()))
              [ ca; cb ]
        | _ ->
            let f = Eval.binop op in
            combine (fun () -> f (ca.run ()) (cb.run ())) [ ca; cb ])
    | Cond (c, t, f) ->
        let cc = compile_expr env c
        and ct = compile_expr env t
        and cf = compile_expr env f in
        combine
          (fun () ->
            match Packed.to_bool (cc.run ()) with
            | Some true -> ct.run ()
            | Some false -> cf.run ()
            | None -> Packed.merge_x (ct.run ()) (cf.run ()))
          [ cc; ct; cf ]
    | Concat [] ->
        (* The interpreter fails on List.hd here; defer the same failure. *)
        { (dynamic (fun () -> List.hd [])) with craise = true }
    | Concat es ->
        let cs = List.map (compile_expr env) es in
        let hd = List.hd cs and tl = List.tl cs in
        combine
          (fun () ->
            List.fold_left (fun acc c -> Packed.concat acc (c.run ())) (hd.run ()) tl)
          cs
    | Repl (n, x) ->
        let cn = compile_expr env n and cx = compile_expr env x in
        let run () =
          match Packed.to_int (cn.run ()) with
          | Some k when k > 0 ->
              let xv = cx.run () in
              Eval.check_width "replication" (k * Packed.width xv);
              Packed.replicate k xv
          | _ -> Packed.all_x 1
        in
        (* Width-checked at run time; a constant one is folded below. *)
        { (combine run [ cn; cx ]) with craise = true }
    | Call ("$time", _) | Call ("$stime", _) ->
        let st = env.st in
        impure (fun () -> Packed.of_int 64 st.Runtime.now)
    | Call ("$random", _) ->
        let st = env.st in
        impure (fun () ->
            Packed.of_int 32
              ((st.Runtime.steps * 1103515245 + 12345) land 0x3FFFFFFF))
    | Call (f, _) -> raise_at_runtime ("unsupported system function " ^ f)
  in
  (* Constant folding: an input-free subexpression evaluates once at
     compile time.  A folding-time error becomes a deferred runtime error,
     matching the interpreter's report point. *)
  if ce.cconst then (
    match ce.run () with
    | p -> const_p p
    | exception Runtime.Elab_error msg -> raise_at_runtime msg)
  else ce

let compile_bool env e =
  let ce = compile_expr env e in
  if ce.cconst then (
    let b = Packed.to_bool (ce.run ()) in
    (ce, fun () -> b))
  else (ce, fun () -> Packed.to_bool (ce.run ()))

let compile_int env e =
  let ce = compile_expr env e in
  if ce.cconst then (
    let n = Packed.to_int (ce.run ()) in
    (ce, fun () -> n))
  else (ce, fun () -> Packed.to_int (ce.run ()))

(* --- Lvalues ------------------------------------------------------------ *)

(* Mirrors Eval.prepare_store: index expressions are (re)evaluated at store
   time, identifier resolution happens once here.  [raises] is set when a
   store may raise, as [craise] is for expressions. *)
let rec compile_store ?(raises = ref false) (env : env) (lv : lvalue) :
    unit -> int * (Packed.t -> unit) =
  let st = env.st in
  let fail msg =
    raises := true;
    fun () -> raise (Runtime.Elab_error msg)
  in
  let resolved name =
    match Runtime.scope_find env.sc name with
    | Some (Bvar v) ->
        note_write env v;
        Ok v
    | Some (Bconst _) ->
        Error (Printf.sprintf "%s is a parameter, not a variable" name)
    | None ->
        Error
          (Printf.sprintf "undeclared identifier %s in %s" name
             env.sc.Runtime.sc_path)
  in
  match lv with
  | LId name -> (
      match resolved name with
      | Error msg -> fail msg
      | Ok v ->
          if v.v_kind = Runtime.NamedEvent then
            fail ("assignment to named event " ^ name)
          else (
            let pair = (v.v_width, fun value -> Runtime.set_var st v value) in
            fun () -> pair))
  | LIndex (name, idx) -> (
      match resolved name with
      | Error msg -> fail msg
      | Ok v ->
          let ce, ci = compile_int env idx in
          if ce.craise then raises := true;
          fun () -> (
            match ci () with
            | None -> (v.v_width, fun _ -> ())
            | Some i ->
                if v.v_array <> None then
                  (v.v_width, fun value -> Runtime.set_array_word st v i value)
                else (
                  let si = Runtime.storage_index v i in
                  ( 1,
                    fun value ->
                      if si >= 0 && si < v.v_width then
                        Runtime.set_var st v
                          (Packed.insert ~into:v.v_value ~msb:si ~lsb:si value) ))))
  | LRange (name, me, le) -> (
      match resolved name with
      | Error msg -> fail msg
      | Ok v ->
          let cem, cm = compile_int env me and cel, cl = compile_int env le in
          let prep () =
            match (cm (), cl ()) with
            | Some m, Some l ->
                let a = Runtime.storage_index v m
                and b = Runtime.storage_index v l in
                let hi = max a b and lo = min a b in
                Eval.check_width "part-select" (hi - lo + 1);
                ( hi - lo + 1,
                  fun value ->
                    Runtime.set_var st v
                      (Packed.insert ~into:v.v_value ~msb:hi ~lsb:lo value) )
            | _ -> (v.v_width, fun _ -> ())
          in
          (* Constant bounds are width-checked once, here. *)
          (if cem.craise || cel.craise || not (cem.cconst && cel.cconst) then
             raises := true
           else
             match prep () with
             | _ -> ()
             | exception Runtime.Elab_error _ -> raises := true);
          prep)
  | LConcat lvs ->
      let parts = List.map (compile_store ~raises env) lvs in
      fun () ->
        let parts = List.map (fun p -> p ()) parts in
        let total = List.fold_left (fun acc (w, _) -> acc + w) 0 parts in
        ( total,
          fun value ->
            let value = Packed.resize total value in
            let rec split hi = function
              | [] -> ()
              | (w, store) :: rest ->
                  store (Packed.select value ~msb:hi ~lsb:(hi - w + 1));
                  split (hi - w) rest
            in
            split (total - 1) parts )

let compile_assign ?raises env lv =
  let prep = compile_store ?raises env lv in
  fun value ->
    let w, store = prep () in
    store (Packed.resize w value)

(* --- Statements --------------------------------------------------------- *)

(* Compiled statements run inside Engine fibers: suspension goes through
   the same Suspend effect, so parked continuations, NBA commit order and
   budget accounting are shared with the interpreter.  Runtime.tick calls
   mirror Engine.exec exactly (entry of every statement, plus one per loop
   iteration), keeping step budgets and the $random stream aligned. *)
let rec compile_stmt (env : env) (s : stmt) : unit -> unit =
  let st = env.st in
  let sid = s.sid in
  let body =
    match s.s with
    | Null -> fun () -> ()
    | Block (_, body) ->
        let fs = Array.of_list (List.map (compile_stmt env) body) in
        fun () -> Array.iter (fun f -> f ()) fs
    | Blocking (lhs, delay, rhs) -> (
        let crhs = (compile_expr env rhs).run in
        let cassign = compile_assign env lhs in
        match delay with
        | None -> fun () -> cassign (crhs ())
        | Some d ->
            let _, cd = compile_int env d in
            fun () ->
              let value = crhs () in
              let n = Option.value (cd ()) ~default:0 in
              if n > 0 then Engine.suspend (Engine.WDelay n);
              cassign value)
    | Nonblocking (lhs, delay, rhs) ->
        let crhs = (compile_expr env rhs).run in
        let prep = compile_store env lhs in
        let cd =
          match delay with
          | None -> fun () -> 0
          | Some d ->
              let _, cd = compile_int env d in
              fun () -> Option.value (cd ()) ~default:0
        in
        fun () ->
          let value = crhs () in
          let _, store = prep () in
          let n = cd () in
          Runtime.schedule_nba st ~time:(st.Runtime.now + n) (fun () ->
              store value)
    | If (c, t, e) ->
        let _, cc = compile_bool env c in
        let ct = compile_opt env t and ce = compile_opt env e in
        fun () -> ( match cc () with Some true -> ct () | Some false | None -> ce ())
    | CaseStmt (kind, subject, arms, default) ->
        let csubj = (compile_expr env subject).run in
        let carms =
          List.map
            (fun arm ->
              ( List.map (fun p -> (compile_expr env p).run) arm.patterns,
                compile_opt env arm.arm_body ))
            arms
        in
        let cdefault = compile_opt env default in
        fun () ->
          let sv = csubj () in
          let matches cpat = Eval.case_matches kind sv (cpat ()) in
          let rec try_arms = function
            | [] -> cdefault ()
            | (pats, cbody) :: rest ->
                if List.exists matches pats then cbody () else try_arms rest
          in
          try_arms carms
    | For (init, cond, step, body) ->
        let cinit = compile_stmt env init in
        let _, ccond = compile_bool env cond in
        let cstep = compile_stmt env step in
        let cbody = compile_stmt env body in
        fun () ->
          cinit ();
          let rec loop () =
            Runtime.tick st;
            match ccond () with
            | Some true ->
                cbody ();
                cstep ();
                loop ()
            | Some false | None -> ()
          in
          loop ()
    | While (cond, body) ->
        let _, ccond = compile_bool env cond in
        let cbody = compile_stmt env body in
        fun () ->
          let rec loop () =
            Runtime.tick st;
            match ccond () with
            | Some true ->
                cbody ();
                loop ()
            | Some false | None -> ()
          in
          loop ()
    | Repeat (count, body) ->
        let _, ccount = compile_int env count in
        let cbody = compile_stmt env body in
        fun () -> (
          match ccount () with
          | None -> ()
          | Some n ->
              for _ = 1 to n do
                Runtime.tick st;
                cbody ()
              done)
    | Forever body ->
        let cbody = compile_stmt env body in
        fun () ->
          let rec loop () =
            Runtime.tick st;
            cbody ();
            loop ()
          in
          loop ()
    | Delay (d, k) ->
        let _, cd = compile_int env d in
        let ck = compile_opt env k in
        fun () ->
          let n = Option.value (cd ()) ~default:0 in
          Engine.suspend (Engine.WDelay (max n 0));
          ck ()
    | EventCtrl (specs, k) -> (
        let ck = compile_opt env k in
        (* Sensitivity resolution is static; a resolution error is only
           reported if the statement actually executes. *)
        match Engine.resolve_wait st env.sc specs k with
        | wait ->
            (match wait with
            | Engine.WEdges edges ->
                List.iter (fun (v, _) -> note_read env v) edges
            | Engine.WEvent v -> note_read env v
            | Engine.WDelay _ -> ());
            fun () ->
              Engine.suspend wait;
              ck ()
        | exception Runtime.Elab_error msg ->
            fun () -> raise (Runtime.Elab_error msg))
    | Wait (cond, k) ->
        let _, ccond = compile_bool env cond in
        let support = Elaborate.expr_support env.sc cond in
        List.iter (note_read env) support;
        let edges = List.map (fun v -> (v, Runtime.Any)) support in
        let ck = compile_opt env k in
        fun () ->
          let rec loop () =
            Runtime.tick st;
            match ccond () with
            | Some true -> ()
            | Some false | None ->
                if support = [] then
                  raise (Runtime.Elab_error "wait() on a constant that is false");
                Engine.suspend (Engine.WEdges edges);
                loop ()
          in
          loop ();
          ck ()
    | Trigger name -> (
        match Runtime.scope_find env.sc name with
        | Some (Runtime.Bvar v) when v.Runtime.v_kind = Runtime.NamedEvent ->
            fun () -> Runtime.trigger_event st v
        | _ ->
            let msg = "-> target is not an event: " ^ name in
            fun () -> raise (Runtime.Elab_error msg))
    | SysTask (task, args) ->
        (* Delegate to the interpreter so $display formatting and $monitor
           hooks stay byte-identical.  Argument vars count as reads. *)
        List.iter
          (fun a -> List.iter (note_read env) (Elaborate.expr_support env.sc a))
          args;
        let sc = env.sc in
        fun () -> Engine.exec_systask st sc task args
  in
  fun () ->
    Runtime.tick st;
    Runtime.cover st sid;
    body ()

and compile_opt env = function
  | None -> fun () -> ()
  | Some s -> compile_stmt env s

(* --- Cyclic process shapes ---------------------------------------------- *)

(* Syntactic check: executing [s] can never suspend the running fiber.
   Blocking assignments with an intra-assignment delay are conservatively
   treated as suspending (the delay expression could be positive). *)
let rec suspend_free (s : stmt) : bool =
  match s.s with
  | Null | Trigger _ | SysTask _ -> true
  | Blocking (_, None, _) | Nonblocking _ -> true
  | Blocking (_, Some _, _) -> false
  | Delay _ | EventCtrl _ | Wait _ -> false
  | Block (_, body) -> List.for_all suspend_free body
  | If (_, t, e) -> opt_suspend_free t && opt_suspend_free e
  | CaseStmt (_, _, arms, default) ->
      List.for_all (fun a -> opt_suspend_free a.arm_body) arms
      && opt_suspend_free default
  | For (i, _, st, b) -> suspend_free i && suspend_free st && suspend_free b
  | While (_, b) | Repeat (_, b) | Forever b -> suspend_free b

and opt_suspend_free = function None -> true | Some s -> suspend_free s

(* Entry thunk of a statement: the budget/coverage accounting the
   interpreter performs before dispatching on the statement kind. *)
let stmt_entry (st : Runtime.state) sid () =
  Runtime.tick st;
  Runtime.cover st sid

(* Classify an always body; [None] means it stays a fiber.  The compiled
   closures perform the same tick/cover accounting in the same order as
   the interpreted loop, so step budgets and the $random stream match. *)
let compile_always (env : env) (s : stmt) : cproc option =
  let st = env.st in
  let seg_delay (si : stmt) d k =
    let _, cd = compile_int env d in
    let ck = compile_opt env k in
    let entry = stmt_entry st si.sid in
    Dwait
      ( (fun () ->
          entry ();
          Option.value (cd ()) ~default:0),
        ck )
  in
  match s.s with
  | EventCtrl (specs, k) when opt_suspend_free k -> (
      match Engine.resolve_wait st env.sc specs k with
      | exception Runtime.Elab_error _ -> None
      | wait ->
          let wait =
            match wait with
            | Engine.WEdges edges ->
                (* One waiter entry per (var, edge), as park installs. *)
                let seen = Hashtbl.create 4 in
                Engine.WEdges
                  (List.filter
                     (fun ((v : Runtime.var), e) ->
                       if Hashtbl.mem seen (v.Runtime.v_name, e) then false
                       else (
                         Hashtbl.add seen (v.Runtime.v_name, e) ();
                         true))
                     edges)
            | w -> w
          in
          (match wait with
          | Engine.WEdges edges ->
              List.iter (fun (v, _) -> note_read env v) edges
          | Engine.WEvent v -> note_read env v
          | Engine.WDelay _ -> ());
          Some
            (Pedge
               {
                 pe_tick = stmt_entry st s.sid;
                 pe_wait = wait;
                 pe_body = compile_opt env k;
                 pe_label =
                   Printf.sprintf "commit:%s#%d" env.sc.Runtime.sc_path s.sid;
               }))
  | Delay (d, k) when opt_suspend_free k ->
      (* Bare "always #d stmt": the delay op carries the loop's entry. *)
      Some
        (Pdelay
           {
             pd_entry = (fun () -> ());
             pd_ops = [| seg_delay s d k |];
             pd_label = Printf.sprintf "gen:%s#%d" env.sc.Runtime.sc_path s.sid;
           })
  | Block (_, stmts)
    when List.exists (fun si -> match si.s with Delay _ -> true | _ -> false)
           stmts
         && List.for_all
              (fun si ->
                suspend_free si
                || match si.s with Delay (_, k) -> opt_suspend_free k | _ -> false)
              stmts ->
      let ops =
        List.map
          (fun si ->
            match si.s with
            | Delay (d, k) -> seg_delay si d k
            | _ -> Drun (compile_stmt env si))
          stmts
      in
      Some
        (Pdelay
           {
             pd_entry = stmt_entry st s.sid;
             pd_ops = Array.of_list ops;
             pd_label = Printf.sprintf "gen:%s#%d" env.sc.Runtime.sc_path s.sid;
           })
  | _ -> None

(* --- Levelization ------------------------------------------------------- *)

let lvalue_targets sc lv = Elaborate.lvalue_support sc lv

(* One levelized node per combinational binding. *)
let compile_node (envs : env) (cb : Elaborate.comb) : node =
  let mk ?(ce = const_p (Packed.zero 1)) ?(raises = ref false) eval targets =
    let support = cb.Elaborate.cb_support in
    {
      n_eval = eval;
      n_targets = targets;
      n_support = support;
      n_impure = ce.cimpure;
      n_raises = ce.craise || !raises;
      n_names = List.map (fun (v : Runtime.var) -> v.Runtime.v_local) targets;
      n_supp_arr = Array.of_list support;
      n_seen = Array.make (List.length support) (Packed.zero 1);
      n_const = false;
      n_level = 0;
      n_prof = None;
    }
  in
  match cb.Elaborate.cb_desc with
  | Elaborate.CInit (sc, v, e) | Elaborate.CPortIn (sc, v, e) ->
      let ce = compile_expr { envs with sc } e in
      mk ~ce (fun () -> Runtime.set_var envs.st v (ce.run ())) [ v ]
  | Elaborate.CAssign (sc, lhs, rhs) ->
      let env = { envs with sc } and raises = ref false in
      let ce = compile_expr env rhs in
      let cassign = compile_assign ~raises env lhs in
      mk ~ce ~raises (fun () -> cassign (ce.run ())) (lvalue_targets sc lhs)
  | Elaborate.CPortOut (sc, lv, inner) ->
      let raises = ref false in
      let cassign = compile_assign ~raises { envs with sc } lv in
      mk ~raises (fun () -> cassign inner.Runtime.v_value) (lvalue_targets sc lv)

(* Topologically order nodes by driver dependency.  Raises [Fallback] on a
   multiply-driven combinational net or a combinational cycle. *)
let levelize (nodes : node array) : node array =
  let n = Array.length nodes in
  let writer : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i nd ->
      List.iter
        (fun (v : Runtime.var) ->
          match Hashtbl.find_opt writer v.Runtime.v_name with
          | Some _ ->
              raise
                (Fallback
                   (Printf.sprintf "multi-driven net %s" v.Runtime.v_name))
          | None -> Hashtbl.add writer v.Runtime.v_name i)
        nd.n_targets)
    nodes;
  let deps = Array.make n [] and indeg = Array.make n 0 in
  Array.iteri
    (fun i nd ->
      let ds =
        List.filter_map
          (fun (v : Runtime.var) ->
            match Hashtbl.find_opt writer v.Runtime.v_name with
            | Some j when j <> i -> Some j
            | Some _ ->
                raise
                  (Fallback
                     (Printf.sprintf "combinational cycle through %s"
                        v.Runtime.v_name))
            | None -> None)
          nd.n_support
        |> List.sort_uniq compare
      in
      deps.(i) <- ds;
      indeg.(i) <- List.length ds)
    nodes;
  let succs = Array.make n [] in
  Array.iteri
    (fun i _ -> List.iter (fun j -> succs.(j) <- i :: succs.(j)) deps.(i))
    nodes;
  let order = ref [] and placed = ref 0 in
  let q = Queue.create () in
  (* Seed in elaboration order for a deterministic schedule. *)
  Array.iteri (fun i _ -> if indeg.(i) = 0 then Queue.push i q) nodes;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    let lvl =
      List.fold_left (fun acc j -> max acc (nodes.(j).n_level + 1)) 1 deps.(i)
    in
    nodes.(i).n_level <- lvl;
    order := i :: !order;
    incr placed;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.push j q)
      (List.rev succs.(i))
  done;
  if !placed < n then (
    let stuck =
      Array.to_list nodes
      |> List.filteri (fun i _ -> indeg.(i) > 0)
      |> List.concat_map (fun nd -> nd.n_names)
    in
    raise
      (Fallback
         ("combinational cycle through " ^ String.concat "," stuck)));
  (* [order] accumulated by prepending, so reversing it restores pop
     (topological) order. *)
  Array.of_list (List.rev_map (fun i -> nodes.(i)) !order)

(* --- Whole-design compilation ------------------------------------------- *)

let compile (elab : Elaborate.elaborated) : artifact =
  let st = elab.Elaborate.st in
  let reads = Hashtbl.create 256 and writes = Hashtbl.create 256 in
  (* Processes first: their read/write sets drive const/dead analysis. *)
  let procs =
    List.map
      (fun (p : Elaborate.process) ->
        let env = { st; sc = p.Elaborate.pr_scope; reads; writes } in
        (* Labels match the event engine's spawn sites, so event and
           compiled runs of the same design attribute to the same
           process names in the ledger. *)
        let label kind =
          Printf.sprintf "%s:%s#%d" kind p.Elaborate.pr_scope.Runtime.sc_path
            p.Elaborate.pr_body.Verilog.Ast.sid
        in
        match p.Elaborate.pr_kind with
        | Elaborate.PInitial ->
            Pfiber (label "init", compile_stmt env p.Elaborate.pr_body)
        | Elaborate.PAlways -> (
            match compile_always env p.Elaborate.pr_body with
            | Some cp -> cp
            | None ->
                let body = compile_stmt env p.Elaborate.pr_body in
                let rec loop () =
                  body ();
                  loop ()
                in
                Pfiber (label "proc", loop)))
      elab.Elaborate.procs
  in
  (* Node compilation gets scratch read/write tables: const/dead analysis
     below must see only what *processes* touch, and the structured node
     dependencies are carried by cb_support / n_targets instead. *)
  let base_env =
    {
      st;
      sc = elab.Elaborate.top_scope;
      reads = Hashtbl.create 16;
      writes = Hashtbl.create 16;
    }
  in
  let nodes = Array.of_list (List.map (compile_node base_env) elab.Elaborate.combs) in
  let ordered = levelize nodes in
  (* Constant propagation in topo order: a node is constant when nothing in
     its support can ever change after time 0. *)
  let const_var : (string, bool) Hashtbl.t = Hashtbl.create 64 in
  let var_const (v : Runtime.var) =
    match Hashtbl.find_opt const_var v.Runtime.v_name with
    | Some b -> b
    | None ->
        (* Not combinationally driven: constant iff no process writes it. *)
        not (Hashtbl.mem writes v.Runtime.v_name)
  in
  Array.iter
    (fun nd ->
      nd.n_const <- (not nd.n_impure) && List.for_all var_const nd.n_support;
      (* Single writer per net (levelize enforced it), so no merging. *)
      List.iter
        (fun (v : Runtime.var) ->
          Hashtbl.replace const_var v.Runtime.v_name
            (nd.n_const && not (Hashtbl.mem writes v.Runtime.v_name)))
        nd.n_targets)
    ordered;
  (* Liveness, backwards: a node is dead when no target is read by any
     process, recorded as an output, or feeds a live node, and evaluating
     it cannot raise. *)
  let live : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter (fun name _ -> Hashtbl.replace live name ()) reads;
  List.iter
    (fun (v : Runtime.var) ->
      if v.Runtime.v_is_output then Hashtbl.replace live v.Runtime.v_name ())
    st.Runtime.all_vars;
  let node_live nd =
    nd.n_raises
    || List.exists
         (fun (v : Runtime.var) -> Hashtbl.mem live v.Runtime.v_name)
         nd.n_targets
  in
  for i = Array.length ordered - 1 downto 0 do
    let nd = ordered.(i) in
    if node_live nd then
      List.iter
        (fun (v : Runtime.var) -> Hashtbl.replace live v.Runtime.v_name ())
        nd.n_support
  done;
  let alive = Array.of_list (List.filter node_live (Array.to_list ordered)) in
  let dynamic =
    Array.of_list (List.filter (fun nd -> not nd.n_const) (Array.to_list alive))
  in
  (* External inputs: support vars of the dynamic schedule not themselves
     produced by a live node. *)
  let produced : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun nd ->
      List.iter
        (fun (v : Runtime.var) -> Hashtbl.replace produced v.Runtime.v_name ())
        nd.n_targets)
    alive;
  let inputs : (string, Runtime.var) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun nd ->
      List.iter
        (fun (v : Runtime.var) ->
          if not (Hashtbl.mem produced v.Runtime.v_name) then
            Hashtbl.replace inputs v.Runtime.v_name v)
        nd.n_support)
    dynamic;
  let input_list =
    Hashtbl.fold (fun _ v acc -> v :: acc) inputs []
    |> List.sort (fun (a : Runtime.var) b ->
           compare a.Runtime.v_name b.Runtime.v_name)
  in
  let levels = Array.fold_left (fun acc nd -> max acc nd.n_level) 0 ordered in
  {
    a_elab = elab;
    a_t0 = alive;
    a_dynamic = dynamic;
    a_inputs = Array.of_list input_list;
    a_procs = procs;
    a_stats =
      {
        c_nodes = Array.length nodes;
        c_const = Array.length alive - Array.length dynamic;
        c_dead = Array.length ordered - Array.length alive;
        c_levels = levels;
      };
  }

(* Target local names in schedule order, for the levelization tests. *)
let schedule_order (art : artifact) : string list =
  Array.to_list art.a_t0 |> List.concat_map (fun nd -> nd.n_names)

(* --- Running an artifact ------------------------------------------------ *)

(* Rewind the elaborated state so the artifact can run again: same vars,
   same scopes, fresh values and scheduler.  Compiled closures captured the
   var records themselves, so identity must be preserved. *)
let reset (art : artifact) ~max_steps ~max_time =
  let st = art.a_elab.Elaborate.st in
  st.Runtime.now <- 0;
  st.Runtime.finished <- false;
  st.Runtime.steps <- 0;
  st.Runtime.max_steps <- max_steps;
  st.Runtime.max_time <- max_time;
  st.Runtime.horizon <- [];
  Queue.clear st.Runtime.current.Runtime.sl_active;
  st.Runtime.current.Runtime.sl_nba <- [];
  List.iter
    (fun (v : Runtime.var) -> v.Runtime.v_on_waiter_list <- false)
    st.Runtime.waiter_vars;
  st.Runtime.waiter_vars <- [];
  Buffer.clear st.Runtime.display_log;
  st.Runtime.end_of_step_hooks <- [];
  st.Runtime.obs_active_dispatches <- 0;
  st.Runtime.obs_nba_dispatches <- 0;
  st.Runtime.obs_timesteps <- 0;
  st.Runtime.obs_max_queue <- 0;
  st.Runtime.obs_profile <- false;
  List.iter
    (fun (v : Runtime.var) ->
      let ax = Packed.all_x v.Runtime.v_width in
      v.Runtime.v_value <-
        (if v.Runtime.v_kind = Runtime.NamedEvent then Packed.zero 1 else ax);
      Array.fill v.Runtime.v_words 0 (Array.length v.Runtime.v_words) ax;
      v.Runtime.v_waiters <- [];
      v.Runtime.v_subscribers <- [])
    st.Runtime.all_vars

(* Profiler frame for the levelized settle pass; individual node frames
   nest under it. *)
let prof_comb = Obs.Profile.site "comb"

(* Launch the compiled design: one settle subscriber for the whole
   levelized schedule, then the compiled processes in elaboration order
   (matching Engine.launch's comb-then-process activation order). *)
let launch (art : artifact) =
  let st = art.a_elab.Elaborate.st in
  (* Latched once per launch. Node/process sites are (re)assigned every
     launch, so a cached artifact honours the current profiling state
     and never carries stale frames into an unprofiled run. *)
  let prof = st.Runtime.obs_profile in
  Array.iter
    (fun nd ->
      nd.n_prof <-
        (if prof then
           Some (Obs.Profile.site ("node:" ^ String.concat "," nd.n_names))
         else None))
    art.a_t0;
  let n_inputs = Array.length art.a_inputs in
  let last_seen = Array.make (max n_inputs 1) (Packed.zero 1) in
  let snapshot () =
    for i = 0 to n_inputs - 1 do
      last_seen.(i) <- art.a_inputs.(i).Runtime.v_value
    done
  in
  (* One settle pass walks the dynamic schedule in topo order, evaluating
     only nodes whose support actually changed since their last evaluation
     (pointer comparison: set_var replaces v_value on change).  This keeps
     the per-pass cost at a pointer scan and matches the event engine,
     which also re-evaluates a binding only when its support changes.
     Impure nodes (array words mutate in place; $time/$random) are always
     evaluated. *)
  let eval_node nd =
    match nd.n_prof with
    | None -> nd.n_eval ()
    | Some site ->
        Obs.Profile.enter site;
        nd.n_eval ();
        Obs.Profile.leave site
  in
  let eval_dirty nd =
    if nd.n_impure then eval_node nd
    else begin
      let supp = nd.n_supp_arr and seen = nd.n_seen in
      let dirty = ref false in
      for i = 0 to Array.length supp - 1 do
        let cur = supp.(i).Runtime.v_value in
        if cur != seen.(i) then begin
          dirty := true;
          seen.(i) <- cur
        end
      done;
      if !dirty then eval_node nd
    end
  in
  let eval_force nd =
    let supp = nd.n_supp_arr and seen = nd.n_seen in
    for i = 0 to Array.length supp - 1 do
      seen.(i) <- supp.(i).Runtime.v_value
    done;
    eval_node nd
  in
  let settle_dynamic () =
    if prof then Obs.Profile.enter prof_comb;
    Array.iter eval_dirty art.a_dynamic;
    snapshot ();
    if prof then Obs.Profile.leave prof_comb
  in
  (* Per-input wake-up: O(1) dedup against the last settle's snapshot, so
     a burst of NBA updates in one delta triggers a single pass. *)
  Array.iteri
    (fun i (v : Runtime.var) ->
      if v.Runtime.v_array <> None then Runtime.subscribe v settle_dynamic
      else
        Runtime.subscribe v (fun () ->
            if v.Runtime.v_value != last_seen.(i) then settle_dynamic ()))
    art.a_inputs;
  (* Time-0 pass evaluates every live node (constants included) once. *)
  Runtime.schedule_active st (fun () ->
      if prof then Obs.Profile.enter prof_comb;
      Array.iter eval_force art.a_t0;
      snapshot ();
      if prof then Obs.Profile.leave prof_comb);
  (* Profiled callbacks run under their process's frame; Fun.protect (not
     a bare leave) because $finish escapes bodies as an exception. *)
  let prof_wrap label f =
    if not prof then f
    else begin
      let site = Obs.Profile.site label in
      fun () ->
        Obs.Profile.enter site;
        Fun.protect ~finally:(fun () -> Obs.Profile.leave site) f
    end
  in
  List.iter
    (fun cp ->
      match cp with
      | Pfiber (label, body) ->
          Engine.spawn
            ?prof:(if prof then Some (Obs.Profile.site label) else None)
            st body
      | Pedge { pe_tick; pe_wait; pe_body; pe_label } -> (
          let pe_body = prof_wrap pe_label pe_body in
          (* The arm/wake pair replays the fiber's lifecycle without a
             continuation: tick (the @() entry), install waiters, and on
             wake run the body then re-arm.  The initial arm is scheduled
             exactly where [Engine.spawn] schedules the fiber start, so
             time-0 ordering is unchanged. *)
          let note_listed (v : Runtime.var) =
            if not v.Runtime.v_on_waiter_list then begin
              v.Runtime.v_on_waiter_list <- true;
              st.Runtime.waiter_vars <- v :: st.Runtime.waiter_vars
            end
          in
          match pe_wait with
          | Engine.WEdges [ (v, e) ] ->
              (* Single-signal sensitivity (the clocked-register shape):
                 one waiter record reused for the life of the run.  The
                 wake path removed it from [v_waiters] before calling us,
                 so re-adding on arm never duplicates. *)
              let fired = ref false in
              let wake_ref = ref (fun () -> ()) in
              let w : Runtime.waiter =
                { w_edge = e; w_fired = fired; w_k = (fun () -> !wake_ref ()) }
              in
              let rec arm () =
                pe_tick ();
                fired := false;
                v.Runtime.v_waiters <- w :: v.Runtime.v_waiters;
                note_listed v
              and wake () =
                pe_body ();
                arm ()
              in
              wake_ref := wake;
              Runtime.schedule_active st arm
          | Engine.WEvent v ->
              let fired = ref false in
              let wake_ref = ref (fun () -> ()) in
              let w : Runtime.waiter =
                {
                  w_edge = Runtime.Any;
                  w_fired = fired;
                  w_k = (fun () -> !wake_ref ());
                }
              in
              let rec arm () =
                pe_tick ();
                fired := false;
                v.Runtime.v_waiters <- w :: v.Runtime.v_waiters;
                note_listed v
              and wake () =
                pe_body ();
                arm ()
              in
              wake_ref := wake;
              Runtime.schedule_active st arm
          | Engine.WDelay n ->
              let rec arm () =
                pe_tick ();
                Runtime.schedule_at st ~time:(st.Runtime.now + max n 0) wake
              and wake () =
                pe_body ();
                arm ()
              in
              Runtime.schedule_active st arm
          | Engine.WEdges edges ->
              (* Mixed sensitivity: fresh shared-fired group per arm, as
                 [Engine.park] installs. *)
              let rec arm () =
                pe_tick ();
                let fired = ref false in
                List.iter
                  (fun (v, e) -> Runtime.add_waiter ~fired st v e wake)
                  edges
              and wake () =
                pe_body ();
                arm ()
              in
              Runtime.schedule_active st arm)
      | Pdelay { pd_entry; pd_ops; pd_label } ->
          let n_ops = Array.length pd_ops in
          (* The resume continuation of each delay op is iteration
             independent; allocating it once keeps the per-edge cost of a
             clock generator to the schedule itself. *)
          let conts = Array.make n_ops (fun () -> ()) in
          let rec step i =
            if i >= n_ops then (
              pd_entry ();
              step 0)
            else
              match pd_ops.(i) with
              | Drun f ->
                  f ();
                  step (i + 1)
              | Dwait (pre, _) ->
                  let n = max (pre ()) 0 in
                  Runtime.schedule_at st ~time:(st.Runtime.now + n) conts.(i)
          in
          Array.iteri
            (fun i op ->
              match op with
              | Drun _ -> ()
              | Dwait (_, k) ->
                  conts.(i) <-
                    prof_wrap pd_label (fun () ->
                        k ();
                        step (i + 1)))
            pd_ops;
          Runtime.schedule_active st
            (prof_wrap pd_label (fun () ->
                 pd_entry ();
                 step 0)))
    art.a_procs

let run (art : artifact) : Engine.outcome =
  let st = art.a_elab.Elaborate.st in
  if st.Runtime.obs_profile then begin
    Obs.Profile.enter Engine.prof_setup;
    launch art;
    Obs.Profile.leave Engine.prof_setup
  end
  else launch art;
  try
    Runtime.run_loop st;
    if st.Runtime.finished then Engine.Finished
    else if st.Runtime.horizon <> [] then Engine.Time_limit_reached
    else Engine.Quiescent
  with Runtime.Sim_budget_exceeded msg -> Engine.Budget_exceeded msg
