(* The compiled simulation backend.

   [compile] lowers an elaborated design into a reusable artifact, and
   [derive] builds the artifact of a design that differs from a compiled
   one only in process bodies by compiling just those processes:

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

(* What a compiled process reads and writes: the distinct hierarchical
   names, sorted.  Const and dead analysis read only the union over the
   processes. *)
type access = { ac_reads : string array; ac_writes : string array }

(* Nodes are shared by every artifact derived from one base ({!derive}),
   so what a node's schedule position depends on -- whether it is
   constant, live, an input -- lives in the artifact, never in the node. *)
type artifact = {
  a_elab : Elaborate.elaborated;
  a_order : node array; (* every node, topo order *)
  a_t0 : node array; (* live nodes, topo order: the time-0 pass *)
  a_dynamic : node array; (* live non-const nodes, topo order *)
  a_inputs : Runtime.var array; (* external inputs of the comb cloud *)
  a_procs : cproc array; (* parallel to [a_elab.procs] *)
  a_access : access array; (* parallel to [a_procs] *)
  a_stats : stats;
}

(* --- Compile-time environment ------------------------------------------ *)

type env = {
  st : Runtime.state;
  sc : Runtime.scope;
  reads : (string, unit) Hashtbl.t; (* names of the vars the process reads *)
  writes : (string, unit) Hashtbl.t; (* ... and writes *)
}

let note_read env v = Hashtbl.replace env.reads v.Runtime.v_name ()
let note_write env v = Hashtbl.replace env.writes v.Runtime.v_name ()

(* --- Expressions -------------------------------------------------------- *)

(* A compiled expression.  A result whose width is bounded by
   [Packed.max_packed_width] at compile time lives in a cell allocated
   here, once: [Cell (c, eval)] writes the value into [c] and allocates
   nothing.  Wider (or unbounded) results take the boxed route, [Boxed
   run], over the boxed [Packed] operators.  Both routes use the same
   operators ([Eval.binop_with]).  Width bounds are static because var and
   constant widths are; only a conditional's arms may differ, and the
   cell then holds the width of the arm taken.

   Alongside: [cw], the bound on the result width ([max_int] when
   unknown); [src], the variable when the expression is a plain read of
   one (a store can then share its boxed value); whether it is input-free
   (safe to fold at compile time), impure (reads simulation time, the
   $random stream, or array words -- all invisible to the var-level
   support set), and whether evaluating it may raise (a node computing it
   then stays live even if nothing reads its targets, because the event
   engine evaluates every binding and reports the error). *)
type value = Cell of Packed.cell * (unit -> unit) | Boxed of (unit -> Packed.t)

type cexpr = {
  v : value;
  cw : int;
  src : Runtime.var option;
  cconst : bool;
  cimpure : bool;
  craise : bool;
}

module P = Packed.Planes

let narrow w = w <= Packed.max_packed_width
let no_eval () = ()

let leaf v cw =
  { v; cw; src = None; cconst = false; cimpure = false; craise = false }

(* An expression over subexpressions [cs]: constant, impure or raising
   when they are. *)
let combine v cw cs =
  {
    v;
    cw;
    src = None;
    cconst = List.for_all (fun c -> c.cconst) cs;
    cimpure = List.exists (fun c -> c.cimpure) cs;
    craise = List.exists (fun c -> c.craise) cs;
  }

(* A boxed evaluator whose result is at most [cw] wide: into a cell when
   that is narrow. *)
let of_boxed cw run =
  if narrow cw then (
    let d = P.make cw in
    Cell (d, fun () -> P.load d (run ())))
  else Boxed run

(* The boxed view of any compiled expression. *)
let boxed ce =
  match ce.v with
  | Boxed run -> run
  | Cell (c, eval) ->
      fun () ->
        eval ();
        P.box c

let const_p p =
  let w = Packed.width p in
  let v =
    if narrow w then (
      let c = P.make w in
      P.load c p;
      Cell (c, no_eval))
    else Boxed (fun () -> p)
  in
  { (leaf v w) with cconst = true }

(* A cell holding [all_x w] for good: results fixed by the compile-time
   shape (an x/z constant index, say) without being input-free. *)
let fixed_x w =
  let c = P.make w in
  P.set_x c w;
  Cell (c, no_eval)

(* Defer an elaboration error to execution time: the event engine only
   reports it when (and if) the statement actually runs. *)
let raise_at_runtime msg =
  { (leaf (Cell (P.make 1, fun () -> raise (Runtime.Elab_error msg))) 1) with craise = true }

(* An index-valued view: the value, or -1 when it has x/z bits (see
   [Packed.to_index]); folded when constant. *)
let index_of ce : unit -> int =
  match (ce.src, ce.v) with
  | _ when ce.cconst ->
      let n = Packed.to_index (boxed ce ()) in
      fun () -> n
  | Some v, _ -> fun () -> Packed.to_index v.v_value
  | None, Cell (c, eval) ->
      fun () ->
        eval ();
        P.to_index c.ca c.cb
  | None, Boxed run -> fun () -> Packed.to_index (run ())

(* A truth-valued view: [P.yes], [P.no] or [P.unknown]. *)
let truth_of ce : unit -> int =
  match (ce.src, ce.v) with
  | _ when ce.cconst ->
      let t = Packed.truth (boxed ce ()) in
      fun () -> t
  | Some v, _ -> fun () -> Packed.truth v.v_value
  | None, Cell (c, eval) ->
      fun () ->
        eval ();
        P.truth c.ca c.cb
  | None, Boxed run -> fun () -> Packed.truth (run ())

(* Bit [si] (in storage order, in range) of a variable's value. *)
let load_bit d (p : Packed.t) si =
  match p with
  | S s -> P.select d s.a s.b ~msb:si ~lsb:si
  | V _ -> P.load d (Packed.select p ~msb:si ~lsb:si)

(* How an operator reads a narrow operand: straight from a variable's
   boxed value, from a constant cell, or from a cell its evaluator fills.
   Reading a variable in place saves the leaf's call and copy. *)
type operand =
  | Ovar of Runtime.var
  | Ofixed of Packed.cell
  | Oeval of Packed.cell * (unit -> unit)

let operand ce =
  match (ce.src, ce.v) with
  | Some v, Cell _ -> Ovar v
  | _, Cell (c, eval) -> if eval == no_eval then Ofixed c else Oeval (c, eval)
  | _, Boxed _ -> invalid_arg "Compile.operand: boxed"

(* [f] into [d] over one or two narrow operands; operands evaluate left to
   right, as in the interpreter (variable reads have no effect to order). *)
let un1 (f : P.op1) d = function
  | Ovar u -> (
      fun () -> match u.v_value with S s -> f d s.w s.a s.b | V _ -> assert false)
  | Ofixed x -> fun () -> f d x.cw x.ca x.cb
  | Oeval (x, ex) ->
      fun () ->
        ex ();
        f d x.cw x.ca x.cb

let bin2 (f : P.op2) d oa ob =
  match (oa, ob) with
  | Oeval (x, ex), Oeval (y, ey) ->
      fun () ->
        ex ();
        ey ();
        f d x.cw x.ca x.cb y.cw y.ca y.cb
  | Oeval (x, ex), Ofixed y ->
      fun () ->
        ex ();
        f d x.cw x.ca x.cb y.cw y.ca y.cb
  | Ofixed x, Oeval (y, ey) ->
      fun () ->
        ey ();
        f d x.cw x.ca x.cb y.cw y.ca y.cb
  | Ofixed x, Ofixed y -> fun () -> f d x.cw x.ca x.cb y.cw y.ca y.cb
  | Ovar u, Ofixed y -> (
      fun () ->
        match u.v_value with S s -> f d s.w s.a s.b y.cw y.ca y.cb | V _ -> assert false)
  | Ofixed x, Ovar v -> (
      fun () ->
        match v.v_value with S t -> f d x.cw x.ca x.cb t.w t.a t.b | V _ -> assert false)
  | Ovar u, Ovar v -> (
      fun () ->
        match (u.v_value, v.v_value) with
        | S s, S t -> f d s.w s.a s.b t.w t.a t.b
        | _ -> assert false)
  | Ovar u, Oeval (y, ey) -> (
      fun () ->
        ey ();
        match u.v_value with S s -> f d s.w s.a s.b y.cw y.ca y.cb | V _ -> assert false)
  | Oeval (x, ex), Ovar v -> (
      fun () ->
        ex ();
        match v.v_value with S t -> f d x.cw x.ca x.cb t.w t.a t.b | V _ -> assert false)

let width_sum ws =
  List.fold_left (fun acc w -> if acc > max_int - w then max_int else acc + w) 0 ws

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
              let w = v.v_width in
              let value =
                if narrow w then (
                  let d = P.make w in
                  Cell (d, fun () -> P.load d v.v_value))
                else Boxed (fun () -> v.v_value)
              in
              { (leaf value w) with src = Some v })
        | None -> raise_at_runtime ("undeclared identifier " ^ name))
    | Index (name, idx) -> (
        let ci = compile_expr env idx in
        let index = index_of ci in
        match Runtime.scope_find env.sc name with
        | Some (Bconst c) ->
            let d = P.make 1 in
            combine
              (Cell
                 ( d,
                   fun () ->
                     let i = index () in
                     if i < 0 then P.set_x d 1 else P.load d (Packed.of_bit (Vec.get c i)) ))
              1 [ ci ]
        | Some (Bvar v) ->
            note_read env v;
            let w = v.v_width in
            if v.v_array <> None then
              let read () =
                let i = index () in
                if i < 0 then Packed.all_x w else Runtime.get_array_word v i
              in
              {
                (leaf (of_boxed w read) w) with
                cimpure = true;
                craise = ci.craise;
              }
            else
              let d = P.make 1 in
              let value =
                if ci.cconst then (
                  let i = index () in
                  let si = if i < 0 then -1 else Runtime.storage_index v i in
                  if si < 0 || si >= w then fixed_x 1
                  else Cell (d, fun () -> load_bit d v.v_value si))
                else
                  Cell
                    ( d,
                      fun () ->
                        let i = index () in
                        if i < 0 then P.set_x d 1
                        else
                          let si = Runtime.storage_index v i in
                          if si < 0 || si >= w then P.set_x d 1 else load_bit d v.v_value si )
              in
              { (combine value 1 [ ci ]) with cconst = false }
        | None ->
            (* The event engine evaluates the index before failing. *)
            let eval () =
              ignore (index ());
              raise (Runtime.Elab_error ("undeclared identifier " ^ name))
            in
            { (leaf (Cell (P.make 1, eval)) 1) with craise = true })
    | RangeSel (name, me, le) -> (
        match Runtime.scope_find env.sc name with
        | Some (Bvar v) ->
            note_read env v;
            let cm = compile_expr env me and cl = compile_expr env le in
            let bounds m l =
              let a = Runtime.storage_index v m and b = Runtime.storage_index v l in
              (max a b, min a b)
            in
            let run () =
              let m = Packed.to_int (boxed cm ()) in
              let l = Packed.to_int (boxed cl ()) in
              match (m, l) with
              | Some m, Some l ->
                  let hi, lo = bounds m l in
                  Eval.check_width "part-select" (hi - lo + 1);
                  Packed.select v.v_value ~msb:hi ~lsb:lo
              | _ -> Packed.all_x 1
            in
            let value, cw =
              if cm.cconst && cl.cconst then
                let m = index_of cm () in
                let l = index_of cl () in
                match (m, l) with
                | m, l when m >= 0 && l >= 0 ->
                    let hi, lo = bounds m l in
                    let wr = hi - lo + 1 in
                    if wr > max_vector_width then (Boxed run, max_int)
                    else if narrow v.v_width && lo >= 0 && hi < v.v_width then (
                      let d = P.make wr in
                      ( Cell
                          ( d,
                            fun () ->
                              match v.v_value with
                              | S s -> P.select d s.a s.b ~msb:hi ~lsb:lo
                              | p -> P.load d (Packed.select p ~msb:hi ~lsb:lo) ),
                        wr ))
                    else
                      (of_boxed wr (fun () -> Packed.select v.v_value ~msb:hi ~lsb:lo), wr)
                | _ -> (fixed_x 1, 1)
              else (Boxed run, max_int)
            in
            let ce = { (combine value cw [ cm; cl ]) with cconst = false } in
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
    | Unop (op, a) -> (
        let ca = compile_expr env a in
        let cw = match op with Uplus | Uminus | Ubnot -> ca.cw | _ -> 1 in
        match ca.v with
        | Cell _ ->
            let f = Eval.unop_with (fun planes _ -> planes) op in
            let d = P.make cw in
            combine (Cell (d, un1 f d (operand ca))) cw [ ca ]
        | Boxed ra ->
            let f = Eval.unop op in
            combine (of_boxed cw (fun () -> f (ra ()))) cw [ ca ])
    | Binop (op, a, b) -> (
        let ca = compile_expr env a and cb = compile_expr env b in
        let cw =
          match op with
          | Add | Sub | Mul | Div | Mod | Band | Bor | Bxor | Bxnor -> max ca.cw cb.cw
          | Shl | Shr -> ca.cw
          | Land | Lor | Eq | Neq | Ceq | Cneq | Lt | Le | Gt | Ge -> 1
        in
        match (ca.v, cb.v) with
        | Cell (x, ea), Cell (y, eb) ->
            let d = P.make cw in
            let value =
              match op with
              | Land ->
                  (* Short-circuit like the interpreter (no observable side
                     effects either way, but keep the fast exit). *)
                  fun () ->
                    ea ();
                    if P.truth x.ca x.cb = P.no then P.set d 1 0 0
                    else (
                      eb ();
                      P.log_and d x.cw x.ca x.cb y.cw y.ca y.cb)
              | Lor ->
                  fun () ->
                    ea ();
                    if P.truth x.ca x.cb = P.yes then P.set d 1 1 0
                    else (
                      eb ();
                      P.log_or d x.cw x.ca x.cb y.cw y.ca y.cb)
              | _ -> bin2 (Eval.binop_with (fun planes _ -> planes) op) d (operand ca) (operand cb)
            in
            combine (Cell (d, value)) cw [ ca; cb ]
        | _ ->
            let ra = boxed ca and rb = boxed cb in
            let run =
              match op with
              | Land ->
                  fun () ->
                    let av = ra () in
                    if Packed.to_bool av = Some false then Packed.of_int 1 0
                    else Packed.log_and av (rb ())
              | Lor ->
                  fun () ->
                    let av = ra () in
                    if Packed.to_bool av = Some true then Packed.of_int 1 1
                    else Packed.log_or av (rb ())
              | _ ->
                  let f = Eval.binop op in
                  fun () ->
                    let av = ra () in
                    f av (rb ())
            in
            combine (of_boxed cw run) cw [ ca; cb ])
    | Cond (c, t, f) -> (
        let cc = compile_expr env c
        and ct = compile_expr env t
        and cf = compile_expr env f in
        let truth = truth_of cc in
        let cw = max ct.cw cf.cw in
        match (ct.v, cf.v) with
        | Cell (x, et), Cell (y, ef) ->
            let d = P.make cw in
            combine
              (Cell
                 ( d,
                   fun () ->
                     let tv = truth () in
                     if tv = P.yes then (
                       et ();
                       P.set d x.cw x.ca x.cb)
                     else if tv = P.no then (
                       ef ();
                       P.set d y.cw y.ca y.cb)
                     else (
                       et ();
                       ef ();
                       P.merge_x d x.cw x.ca x.cb y.cw y.ca y.cb) ))
              cw [ cc; ct; cf ]
        | _ ->
            let rt = boxed ct and rf = boxed cf in
            combine
              (of_boxed cw (fun () ->
                   let tv = truth () in
                   if tv = P.yes then rt ()
                   else if tv = P.no then rf ()
                   else
                     let vt = rt () in
                     let vf = rf () in
                     Packed.merge_x vt vf))
              cw [ cc; ct; cf ])
    | Concat [] ->
        (* The interpreter fails on List.hd here; defer the same failure. *)
        { (leaf (Boxed (fun () -> List.hd [])) max_int) with craise = true }
    | Concat es ->
        let cs = List.map (compile_expr env) es in
        let cw = width_sum (List.map (fun c -> c.cw) cs) in
        let cells =
          List.filter_map (fun c -> match c.v with Cell (x, e) -> Some (x, e) | Boxed _ -> None) cs
        in
        if narrow cw && List.length cells = List.length cs then (
          let parts = Array.of_list cells in
          let d = P.make cw in
          let hd, ehd = parts.(0) in
          combine
            (Cell
               ( d,
                 fun () ->
                   ehd ();
                   P.set d hd.cw hd.ca hd.cb;
                   for i = 1 to Array.length parts - 1 do
                     let x, e = parts.(i) in
                     e ();
                     P.concat d d.cw d.ca d.cb x.cw x.ca x.cb
                   done ))
            cw cs)
        else
          let runs = List.map boxed cs in
          let hd = List.hd runs and tl = List.tl runs in
          combine
            (of_boxed cw (fun () ->
                 List.fold_left (fun acc run -> Packed.concat acc (run ())) (hd ()) tl))
            cw cs
    | Repl (n, x) ->
        let cn = compile_expr env n and cx = compile_expr env x in
        let count = index_of cn in
        let rx = boxed cx in
        let run () =
          let k = count () in
          if k > 0 then (
            let xv = rx () in
            Eval.check_width "replication" (k * Packed.width xv);
            Packed.replicate k xv)
          else Packed.all_x 1
        in
        let value, cw =
          if cn.cconst then
            let k = count () in
            if k <= 0 then (fixed_x 1, 1)
            else
              match cx.v with
              | Cell (y, ex) when k * cx.cw <= Packed.max_packed_width ->
                  let d = P.make (k * cx.cw) in
                  ( Cell
                      ( d,
                        fun () ->
                          ex ();
                          P.replicate d k y.cw y.ca y.cb ),
                    k * cx.cw )
              | _ ->
                  let cw = if cx.cw > max_int / k then max_int else k * cx.cw in
                  (of_boxed cw run, cw)
          else (Boxed run, max_int)
        in
        (* Width-checked at run time; a constant one is folded below. *)
        { (combine value cw [ cn; cx ]) with craise = true }
    | Call ("$time", _) | Call ("$stime", _) ->
        let st = env.st in
        { (leaf (Boxed (fun () -> Packed.of_int 64 st.Runtime.now)) 64) with cimpure = true }
    | Call ("$random", _) ->
        let st = env.st in
        let d = P.make 32 in
        {
          (leaf
             (Cell
                ( d,
                  fun () ->
                    P.set d 32 ((st.Runtime.steps * 1103515245 + 12345) land 0x3FFFFFFF) 0 ))
             32)
          with
          cimpure = true;
        }
    | Call ("$clog2", [ a ]) ->
        let ca = compile_expr env a in
        let ra = boxed ca in
        combine (of_boxed 32 (fun () -> Eval.clog2 (ra ()))) 32 [ ca ]
    | Call (f, _) -> raise_at_runtime ("unsupported system function " ^ f)
  in
  (* Constant folding: an input-free subexpression evaluates once at
     compile time.  A folding-time error becomes a deferred runtime error,
     matching the interpreter's report point. *)
  if ce.cconst then (
    match boxed ce () with
    | p -> const_p p
    | exception Runtime.Elab_error msg -> raise_at_runtime msg)
  else ce

let compile_truth env e = truth_of (compile_expr env e)
let compile_index env e = index_of (compile_expr env e)

(* A delay amount: x/z reads as 0. *)
let compile_delay env e =
  let n = compile_index env e in
  fun () -> max (n ()) 0

(* --- Lvalues ------------------------------------------------------------ *)

(* A compiled lvalue.  [prep] evaluates its index expressions and resolves
   the store into [target]/[lo]/[hi] (see [Runtime.target]) and [width],
   the lvalue's width, in place; [static] when it has nothing to evaluate.
   Mirrors Eval.prepare_store: index expressions are (re)evaluated at store
   time, identifier resolution happens once here.  [raises] is set when a
   store may raise, as [craise] is for expressions. *)
type cstore = {
  mutable prep : unit -> unit;
  mutable static : bool;
  mutable target : Runtime.target;
  mutable lo : int;
  mutable hi : int;
  mutable width : int;
}

let rec compile_store ?(raises = ref false) (env : env) (lv : lvalue) : cstore =
  let st = env.st in
  let s =
    { prep = no_eval; static = false; target = Runtime.Tnone; lo = 0; hi = 0; width = 1 }
  in
  let fail msg =
    raises := true;
    s.prep <- (fun () -> raise (Runtime.Elab_error msg));
    s
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
            s.static <- true;
            s.target <- Runtime.Tvar v;
            s.width <- v.v_width;
            s))
  | LIndex (name, idx) -> (
      match resolved name with
      | Error msg -> fail msg
      | Ok v ->
          let ce = compile_expr env idx in
          if ce.craise then raises := true;
          let index = index_of ce in
          s.prep <-
            (fun () ->
              let i = index () in
              if i < 0 then (
                s.target <- Runtime.Tnone;
                s.width <- v.v_width)
              else if v.v_array <> None then (
                s.target <- Runtime.Tword v;
                s.lo <- i;
                s.width <- v.v_width)
              else (
                let si = Runtime.storage_index v i in
                s.width <- 1;
                if si >= 0 && si < v.v_width then (
                  s.target <- Runtime.Tbits v;
                  s.lo <- si;
                  s.hi <- si)
                else s.target <- Runtime.Tnone));
          s)
  | LRange (name, me, le) -> (
      match resolved name with
      | Error msg -> fail msg
      | Ok v ->
          let cem = compile_expr env me and cel = compile_expr env le in
          let cm = index_of cem and cl = index_of cel in
          s.prep <-
            (fun () ->
              let m = cm () in
              let l = cl () in
              if m >= 0 && l >= 0 then (
                let a = Runtime.storage_index v m
                and b = Runtime.storage_index v l in
                let hi = max a b and lo = min a b in
                Eval.check_width "part-select" (hi - lo + 1);
                s.target <- Runtime.Tbits v;
                s.lo <- lo;
                s.hi <- hi;
                s.width <- hi - lo + 1)
              else (
                s.target <- Runtime.Tnone;
                s.width <- v.v_width));
          (* Constant bounds are width-checked once, here. *)
          (if cem.craise || cel.craise || not (cem.cconst && cel.cconst) then
             raises := true
           else
             match s.prep () with
             | () -> ()
             | exception Runtime.Elab_error _ -> raises := true);
          s)
  | LConcat lvs ->
      let parts = List.map (compile_store ~raises env) lvs in
      s.prep <-
        (fun () ->
          let parts =
            List.map
              (fun p ->
                p.prep ();
                (p.width, p.target, p.lo, p.hi))
              parts
          in
          s.width <- List.fold_left (fun acc (w, _, _, _) -> acc + w) 0 parts;
          s.target <- Runtime.concat_target st parts);
      s

(* Evaluate [ce], resolve [s], and hand the value to [k] (planes) or
   [kb] (boxed): the shared shape of blocking stores, NBA scheduling and
   combinational bindings.  A plain variable read hands over that
   variable's boxed value, which a store then shares. *)
let with_value ce (s : cstore) ~k ~kb : unit -> unit =
  match (ce.src, ce.v) with
  | Some u, _ ->
      fun () ->
        s.prep ();
        kb s u.Runtime.v_value
  | None, Cell (c, eval) ->
      if s.static then fun () ->
        eval ();
        k s c.ca c.cb
      else fun () ->
        eval ();
        s.prep ();
        k s c.ca c.cb
  | None, Boxed run ->
      fun () ->
        let value = run () in
        s.prep ();
        kb s value

let compile_assign st ce s =
  match (s.target, ce.src, ce.v) with
  | Runtime.Tvar v, None, Cell (c, eval) when s.static ->
      (* The common shape, [x = expr], in one closure. *)
      fun () ->
        eval ();
        Runtime.set_var_planes st v c.ca c.cb
  | _ ->
      with_value ce s
        ~k:(fun s a b -> Runtime.store_planes st s.target ~lo:s.lo ~hi:s.hi a b)
        ~kb:(fun s value -> Runtime.store st s.target ~lo:s.lo ~hi:s.hi value)

(* --- Statements --------------------------------------------------------- *)

(* Compiled statements run inside Engine fibers: suspension goes through
   the same Suspend effect, so parked continuations, NBA commit order and
   budget accounting are shared with the interpreter.  Runtime.tick calls
   mirror Engine.exec exactly (entry of every statement, plus one per loop
   iteration), keeping step budgets and the $random stream aligned.  Loop
   closures are built here, once, so executing a statement allocates
   nothing of its own. *)
let rec compile_stmt (env : env) (s : stmt) : unit -> unit =
  let st = env.st in
  let sid = s.sid in
  (* Every statement starts with the entry Engine.exec performs: the
     budget tick and the coverage count.  The common shapes below fuse it
     into their own closure; the rest run [body] after it. *)
  let entered body () =
    Runtime.enter_stmt st sid;
    body ()
  in
  match s.s with
  | Null -> fun () -> Runtime.enter_stmt st sid
  | Block (_, body) ->
      let fs = Array.of_list (List.map (compile_stmt env) body) in
      fun () ->
        Runtime.enter_stmt st sid;
        for i = 0 to Array.length fs - 1 do
          fs.(i) ()
        done
  | Blocking (lhs, delay, rhs) -> (
      let ce = compile_expr env rhs in
      let cs = compile_store env lhs in
      match (delay, cs.target, ce.src, ce.v) with
      | None, Runtime.Tvar v, None, Cell (c, eval) when cs.static ->
          fun () ->
            Runtime.enter_stmt st sid;
            eval ();
            Runtime.set_var_planes st v c.ca c.cb
      | None, _, _, _ -> entered (compile_assign st ce cs)
      | Some d, _, _, _ ->
          let crhs = boxed ce in
          let cd = compile_delay env d in
          entered (fun () ->
              let value = crhs () in
              let n = cd () in
              if n > 0 then Engine.suspend (Engine.WDelay n);
              cs.prep ();
              Runtime.store st cs.target ~lo:cs.lo ~hi:cs.hi value))
  | Nonblocking (lhs, delay, rhs) -> (
      let ce = compile_expr env rhs in
      let cs = compile_store env lhs in
      let cd = match delay with None -> fun () -> 0 | Some d -> compile_delay env d in
      (* The index is resolved and the value captured now; the delay
         evaluates last, as in the interpreter. *)
      match (delay, cs.target, ce.src, ce.v) with
      | None, Runtime.Tvar _, None, Cell (c, eval) when cs.static ->
          (* The common shape, [x <= expr], in one closure. *)
          let target = cs.target in
          fun () ->
            Runtime.enter_stmt st sid;
            eval ();
            Runtime.schedule_nba_planes st ~time:st.Runtime.now target ~lo:0 ~hi:0 ~a:c.ca
              ~b:c.cb
      | _ ->
          entered
            (with_value ce cs
               ~k:(fun s a b ->
                 Runtime.schedule_nba_planes st ~time:(st.Runtime.now + cd ()) s.target
                   ~lo:s.lo ~hi:s.hi ~a ~b)
               ~kb:(fun s value ->
                 Runtime.schedule_nba st ~time:(st.Runtime.now + cd ()) s.target ~lo:s.lo
                   ~hi:s.hi value)))
  | If (c, t, e) ->
      let cc = compile_truth env c in
      let ct = compile_opt env t and ce = compile_opt env e in
      fun () ->
        Runtime.enter_stmt st sid;
        if cc () = P.yes then ct () else ce ()
  | CaseStmt (kind, subject, arms, default) ->
      let csubj = compile_expr env subject in
      (* The subject is evaluated once per execution, then the patterns
         in order: planes when both sides are narrow. *)
      let subj_box = ref (Packed.zero 1) in
      let eval_subject =
        match csubj.v with
        | Cell (_, es) -> es
        | Boxed rs -> fun () -> subj_box := rs ()
      in
      let matcher p =
        let cp = compile_expr env p in
        match (csubj.v, cp.v) with
        | Cell (sc, _), Cell (pc, ep) ->
            fun () ->
              ep ();
              Eval.case_matches_planes kind sc.ca sc.cb pc.ca pc.cb
        | Cell (sc, _), Boxed rp -> fun () -> Eval.case_matches kind (P.box sc) (rp ())
        | Boxed _, _ ->
            let rp = boxed cp in
            fun () -> Eval.case_matches kind !subj_box (rp ())
      in
      let carms =
        Array.of_list
          (List.map
             (fun arm ->
               (Array.of_list (List.map matcher arm.patterns), compile_opt env arm.arm_body))
             arms)
      in
      let cdefault = compile_opt env default in
      let rec any_match pats i = i < Array.length pats && (pats.(i) () || any_match pats (i + 1)) in
      let rec try_arms i =
        if i = Array.length carms then cdefault ()
        else
          let pats, cbody = carms.(i) in
          if any_match pats 0 then cbody () else try_arms (i + 1)
      in
      fun () ->
        Runtime.enter_stmt st sid;
        eval_subject ();
        try_arms 0
  | For (init, cond, step, body) ->
      let cinit = compile_stmt env init in
      let ccond = compile_truth env cond in
      let cstep = compile_stmt env step in
      let cbody = compile_stmt env body in
      let rec loop () =
        Runtime.tick st;
        if ccond () = P.yes then (
          cbody ();
          cstep ();
          loop ())
      in
      entered (fun () ->
          cinit ();
          loop ())
  | While (cond, body) ->
      let ccond = compile_truth env cond in
      let cbody = compile_stmt env body in
      let rec loop () =
        Runtime.tick st;
        if ccond () = P.yes then (
          cbody ();
          loop ())
      in
      entered loop
  | Repeat (count, body) ->
      let ccount = compile_index env count in
      let cbody = compile_stmt env body in
      entered (fun () ->
          for _ = 1 to ccount () do
            Runtime.tick st;
            cbody ()
          done)
  | Forever body ->
      let cbody = compile_stmt env body in
      let rec loop () =
        Runtime.tick st;
        cbody ();
        loop ()
      in
      entered loop
  | Delay (d, k) ->
      let cd = compile_delay env d in
      let ck = compile_opt env k in
      entered (fun () ->
          Engine.suspend (Engine.WDelay (cd ()));
          ck ())
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
          entered (fun () ->
              Engine.suspend wait;
              ck ())
      | exception Runtime.Elab_error msg ->
          entered (fun () -> raise (Runtime.Elab_error msg)))
  | Wait (cond, k) ->
      let ccond = compile_truth env cond in
      let support = Elaborate.expr_support env.sc cond in
      List.iter (note_read env) support;
      let edges = List.map (fun v -> (v, Runtime.Any)) support in
      let ck = compile_opt env k in
      let rec loop () =
        Runtime.tick st;
        if ccond () <> P.yes then (
          if support = [] then
            raise (Runtime.Elab_error "wait() on a constant that is false");
          Engine.suspend (Engine.WEdges edges);
          loop ())
      in
      entered (fun () ->
          loop ();
          ck ())
  | Trigger name -> (
      match Runtime.scope_find env.sc name with
      | Some (Runtime.Bvar v) when v.Runtime.v_kind = Runtime.NamedEvent ->
          entered (fun () -> Runtime.trigger_event st v)
      | _ ->
          let msg = "-> target is not an event: " ^ name in
          entered (fun () -> raise (Runtime.Elab_error msg)))
  | SysTask (task, args) ->
      (* Delegate to the interpreter so $display formatting and $monitor
         hooks stay byte-identical.  Argument vars count as reads. *)
      List.iter
        (fun a -> List.iter (note_read env) (Elaborate.expr_support env.sc a))
        args;
      let sc = env.sc in
      entered (fun () -> Engine.exec_systask st sc task args)

and compile_opt env = function
  | None -> no_eval
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

(* Profiler label of a process, "<kind>:<scope>#<sid>": the event engine's
   spawn-site label, so event and compiled runs of the same design
   attribute to the same process names in the ledger. *)
let proc_label kind (sc : Runtime.scope) sid =
  String.concat "" [ kind; ":"; sc.Runtime.sc_path; "#"; string_of_int sid ]

(* Entry thunk of a statement: the budget/coverage accounting the
   interpreter performs before dispatching on the statement kind. *)
let stmt_entry (st : Runtime.state) sid () = Runtime.enter_stmt st sid

(* Classify an always body; [None] means it stays a fiber.  The compiled
   closures perform the same tick/cover accounting in the same order as
   the interpreted loop, so step budgets and the $random stream match. *)
let compile_always (env : env) (s : stmt) : cproc option =
  let st = env.st in
  let seg_delay (si : stmt) d k =
    let cd = compile_delay env d in
    let ck = compile_opt env k in
    let entry = stmt_entry st si.sid in
    Dwait
      ( (fun () ->
          entry ();
          cd ()),
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
                let distinct = ref [] in
                Engine.iter_distinct (fun v e -> distinct := (v, e) :: !distinct) edges;
                Engine.WEdges (List.rev !distinct)
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
                 pe_label = proc_label "commit" env.sc s.sid;
               }))
  | Delay (d, k) when opt_suspend_free k ->
      (* Bare "always #d stmt": the delay op carries the loop's entry. *)
      Some
        (Pdelay
           {
             pd_entry = (fun () -> ());
             pd_ops = [| seg_delay s d k |];
             pd_label = proc_label "gen" env.sc s.sid;
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
             pd_label = proc_label "gen" env.sc s.sid;
           })
  | _ -> None

(* --- Levelization ------------------------------------------------------- *)

let lvalue_targets sc lv = Elaborate.lvalue_support sc lv

(* One levelized node per combinational binding. *)
let compile_node (envs : env) (cb : Elaborate.comb) : node =
  let st = envs.st in
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
      n_prof = None;
    }
  in
  match cb.Elaborate.cb_desc with
  | Elaborate.CInit (sc, v, e) | Elaborate.CPortIn (sc, v, e) ->
      let ce = compile_expr { envs with sc } e in
      let s =
        { prep = no_eval; static = true; target = Runtime.Tvar v; lo = 0; hi = 0; width = v.v_width }
      in
      mk ~ce (compile_assign st ce s) [ v ]
  | Elaborate.CAssign (sc, lhs, rhs) ->
      let env = { envs with sc } and raises = ref false in
      let ce = compile_expr env rhs in
      let s = compile_store ~raises env lhs in
      mk ~ce ~raises (compile_assign st ce s) (lvalue_targets sc lhs)
  | Elaborate.CPortOut (sc, lv, inner) ->
      let raises = ref false in
      let s = compile_store ~raises { envs with sc } lv in
      let ce = { (leaf (Boxed (fun () -> inner.Runtime.v_value)) inner.v_width) with src = Some inner } in
      mk ~raises (compile_assign st ce s) (lvalue_targets sc lv)

(* Topologically order nodes by driver dependency, with the depth of the
   schedule.  Raises [Fallback] on a multiply-driven combinational net or
   a combinational cycle. *)
let levelize (nodes : node array) : node array * int =
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
  let order = ref [] and placed = ref 0 and depth = ref 0 in
  let level = Array.make n 0 in
  let q = Queue.create () in
  (* Seed in elaboration order for a deterministic schedule. *)
  Array.iteri (fun i _ -> if indeg.(i) = 0 then Queue.push i q) nodes;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    let lvl = List.fold_left (fun acc j -> max acc (level.(j) + 1)) 1 deps.(i) in
    level.(i) <- lvl;
    depth := max !depth lvl;
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
  (Array.of_list (List.rev_map (fun i -> nodes.(i)) !order), !depth)

(* --- Whole-design compilation ------------------------------------------- *)

(* Compile one process, with what it reads and writes. *)
let compile_process st (p : Elaborate.process) : cproc * access =
  let env =
    { st; sc = p.Elaborate.pr_scope; reads = Hashtbl.create 8; writes = Hashtbl.create 8 }
  in
  let label kind =
    proc_label kind p.Elaborate.pr_scope p.Elaborate.pr_body.Verilog.Ast.sid
  in
  let cp =
    match p.Elaborate.pr_kind with
    | Elaborate.PInitial -> Pfiber (label "init", compile_stmt env p.Elaborate.pr_body)
    | Elaborate.PAlways -> (
        match compile_always env p.Elaborate.pr_body with
        | Some cp -> cp
        | None ->
            let body = compile_stmt env p.Elaborate.pr_body in
            let rec loop () =
              body ();
              loop ()
            in
            Pfiber (label "proc", loop))
  in
  let names tbl =
    let a = Array.of_seq (Hashtbl.to_seq_keys tbl) in
    Array.sort String.compare a;
    a
  in
  (cp, { ac_reads = names env.reads; ac_writes = names env.writes })

(* The schedule of the levelized nodes [ordered] given what the processes
   read and write: the live nodes, the live nodes that are not constant,
   and the external inputs of those. *)
let schedule (st : Runtime.state) (ordered : node array) (access : access array) =
  let reads = Hashtbl.create 256 and writes = Hashtbl.create 256 in
  Array.iter
    (fun a ->
      Array.iter (fun name -> Hashtbl.replace reads name ()) a.ac_reads;
      Array.iter (fun name -> Hashtbl.replace writes name ()) a.ac_writes)
    access;
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
  let const =
    Array.map
      (fun nd ->
        let c = (not nd.n_impure) && List.for_all var_const nd.n_support in
        (* Single writer per net (levelize enforced it), so no merging. *)
        List.iter
          (fun (v : Runtime.var) ->
            Hashtbl.replace const_var v.Runtime.v_name
              (c && not (Hashtbl.mem writes v.Runtime.v_name)))
          nd.n_targets;
        c)
      ordered
  in
  (* Liveness, backwards: a node is dead when no target is read by any
     process, recorded as an output, or feeds a live node, and evaluating
     it cannot raise. *)
  let live = reads in
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
  let is_live = Array.map node_live ordered in
  let pick keep =
    Array.of_list (List.filteri (fun i _ -> keep i) (Array.to_list ordered))
  in
  let alive = pick (fun i -> is_live.(i)) in
  let dynamic = pick (fun i -> is_live.(i) && not const.(i)) in
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
  (alive, dynamic, Array.of_list input_list)

let compile (elab : Elaborate.elaborated) : artifact =
  let st = elab.Elaborate.st in
  (* Processes first: their read/write sets drive const/dead analysis. *)
  let compiled = Array.of_list (List.map (compile_process st) elab.Elaborate.procs) in
  (* Node compilation gets scratch read/write tables: const/dead analysis
     must see only what *processes* touch, and the structured node
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
  let ordered, levels = levelize nodes in
  let access = Array.map snd compiled in
  let alive, dynamic, inputs = schedule st ordered access in
  {
    a_elab = elab;
    a_order = ordered;
    a_t0 = alive;
    a_dynamic = dynamic;
    a_inputs = inputs;
    a_procs = Array.map fst compiled;
    a_access = access;
    a_stats =
      {
        c_nodes = Array.length nodes;
        c_const = Array.length alive - Array.length dynamic;
        c_dead = Array.length ordered - Array.length alive;
        c_levels = levels;
      };
  }

(* The artifact of [elab], an elaboration derived from [base]'s by
   {!Elaborate.rebind}, which changed the bodies of the processes at
   positions [changed]: those are compiled, every other process, the state,
   the nodes and their order are [base]'s. The schedule is [base]'s when
   the changed processes read and write what they did, and is recomputed
   from the new sets otherwise. *)
let derive (base : artifact) (elab : Elaborate.elaborated) (changed : int list) :
    artifact =
  let st = elab.Elaborate.st in
  let procs = Array.copy base.a_procs and access = Array.copy base.a_access in
  let bodies = Array.of_list elab.Elaborate.procs in
  List.iter
    (fun i ->
      let cp, a = compile_process st bodies.(i) in
      procs.(i) <- cp;
      access.(i) <- a)
    changed;
  let art = { base with a_elab = elab; a_procs = procs; a_access = access } in
  if List.for_all (fun i -> access.(i) = base.a_access.(i)) changed then art
  else
    let alive, dynamic, inputs = schedule st base.a_order access in
    {
      art with
      a_t0 = alive;
      a_dynamic = dynamic;
      a_inputs = inputs;
      a_stats =
        {
          base.a_stats with
          c_const = Array.length alive - Array.length dynamic;
          c_dead = Array.length base.a_order - Array.length alive;
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
  Runtime.clear st.Runtime.current.Runtime.sl_active;
  st.Runtime.current.Runtime.sl_nba.Runtime.len <- 0;
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
  (* Writes only what changed: a pointer store into a major-heap array
     pays the write barrier, a read does not. *)
  let snapshot () =
    for i = 0 to n_inputs - 1 do
      let cur = art.a_inputs.(i).Runtime.v_value in
      if cur != last_seen.(i) then last_seen.(i) <- cur
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
  let dynamic = art.a_dynamic in
  let settle_dynamic () =
    if prof then Obs.Profile.enter prof_comb;
    for i = 0 to Array.length dynamic - 1 do
      eval_dirty dynamic.(i)
    done;
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
  (* Profiled callbacks run under their process's frame. *)
  let prof_wrap label f =
    if not prof then f
    else begin
      let site = Obs.Profile.site label in
      fun () -> Obs.Profile.framed site f
    end
  in
  Array.iter
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
          match pe_wait with
          | Engine.WDelay n ->
              let rec arm () =
                pe_tick ();
                Runtime.schedule_at st ~time:(st.Runtime.now + max n 0) wake
              and wake () =
                pe_body ();
                arm ()
              in
              Runtime.schedule_active st arm
          | Engine.WEdges _ | Engine.WEvent _ ->
              (* One waiter record per (var, edge), sharing one fired flag
                 as [Engine.park] installs a group, reused for the life of
                 the run.  A wake drops the fired records of the var that
                 changed; records left on the other vars of a mixed group
                 are stale until purged, so arming moves them back to the
                 front rather than adding a second copy. *)
              let edges =
                match pe_wait with
                | Engine.WEdges edges -> edges
                | Engine.WEvent v -> [ (v, Runtime.Any) ]
                | Engine.WDelay _ -> []
              in
              let fired = ref false in
              let wake_ref = ref (fun () -> ()) in
              let group =
                List.map
                  (fun (v, e) ->
                    ( v,
                      ({ w_edge = e; w_fired = fired; w_k = (fun () -> !wake_ref ()) }
                        : Runtime.waiter) ))
                  edges
              in
              let rec arm () =
                pe_tick ();
                fired := false;
                Runtime.rearm_group st group
              and wake () =
                pe_body ();
                arm ()
              in
              wake_ref := wake;
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
