(* Forward dataflow over one module: abstract interpretation with a
   known-bits domain on 4-valued logic. A net's abstract value is a
   [Logic4.Packed] value plus a known mask of the same width (the tnum of
   the Linux eBPF verifier, over 0/1/x/z bits): each masked bit is
   definitely that bit of the value in every execution, the others are
   unknown (top). Values reach a fixpoint by join-accumulation over every
   driver — continuous assignments, procedural writes, declaration
   initializers, ports and instance connections — with control
   reachability pruned by the same abstract values. Fully known operands
   fold through the simulator's own operator table ([Ops]); partial
   knowledge is mask formulas over the value's planes. The abstract
   evaluator takes the same short-circuit and x-merge cases as
   [Sim.Eval], so a fully known abstract value is exactly the value the
   event-driven simulator computes.

   Two consumers sit on top:

   - lint: constant nets, constant conditions (subsuming the PR 1
     [Analysis] check), unreachable case arms, dead (never-read)
     assignments and X-propagation sources, surfaced through `analyze`.

   - pruning: [prune_hash] erases candidate edits that provably cannot
     change simulation outcomes — statements inside branches decided by
     parameters and literals alone, and stores to nets nobody reads —
     and hashes the residue. Two modules with equal prune hashes are
     fitness-equivalent, which lets the repair loop skip the simulation
     entirely (see DESIGN.md "Static pruning" for the soundness
     argument; every erasure below is statement-count- and
     tick-preserving, and is disabled inside `@*` processes whose
     sensitivity list is derived from the full body text). *)

open Ast
module Bit = Logic4.Bit
module Packed = Logic4.Packed
module SMap = Map.Make (String)
module SSet = Deps.Names

(* --- Declaration environment ------------------------------------------- *)

(* The module's one declaration environment: this file's fixpoint,
   [Canon] and [prune_hash] read it, and so do [Analysis]'s width and
   uninit-reg rules. *)
type denv = {
  d_params : Packed.t SMap.t; (* parameters, evaluated in declaration order *)
  d_widths : int SMap.t; (* storage width of every declared net *)
  d_arrays : SSet.t; (* memories *)
  d_regs : SSet.t; (* reg storage; integers are loop counters, not state *)
  d_inited : SSet.t; (* has a declaration initializer *)
  d_inputs : SSet.t; (* input / inout ports *)
  d_ports : SSet.t;
  d_events : SSet.t; (* named events *)
}

(* --- Abstract values ---------------------------------------------------- *)

(* [Bits { v; k }]: value [v] with known mask [k], a defined vector of
   the same width (1 = known). Unknown bits of [v] are held at 0, so a
   fact has one representation. [Any] when even the width is unknown, or
   above [max_vector_width]: the simulator rejects such values. *)
type aval = Bits of { v : Packed.t; k : Packed.t } | Any

let ones w = Packed.lognot (Packed.zero w)
let full k = Packed.equal k (ones (Packed.width k))
let known v = Bits { v; k = ones (Packed.width v) }
let bit n = known (Packed.of_int 1 n)
let x1 = known (Packed.all_x 1)

let top_bits w =
  if w > max_vector_width then Any
  else
    let z = Packed.zero (max 1 w) in
    Bits { v = z; k = z }

let to_known = function Bits { v; k } when full k -> Some v | _ -> None
let awidth = function Any -> None | Bits { v; _ } -> Some (Packed.width v)

(* [v] where [k] is set, 0 elsewhere. *)
let part v k =
  if full k then Bits { v; k }
  else
    let a, b = Packed.to_plane_values v in
    Bits { v = Packed.of_plane_values (Packed.logand a k) (Packed.logand b k); k }

(* Truncation or zero-extension (by known 0 bits) to [w] bits, as a store
   or a wider operand sees the value. *)
let widen w v k =
  (Packed.resize w v, Packed.lognot (Packed.resize w (Packed.lognot k)))

let resize w = function
  | Any -> top_bits w
  | Bits _ when w > max_vector_width -> Any
  | Bits { v; k } ->
      let v, k = widen (max 1 w) v k in
      Bits { v; k }

(* Masks of a value's known 1, known 0 and known x bits (its unknown
   bits are 0). *)
let known1 v =
  let a, b = Packed.to_plane_values v in
  Packed.logand a (Packed.lognot b)

let known0 v k =
  let a, b = Packed.to_plane_values v in
  Packed.logand k (Packed.lognot (Packed.logor a b))

let known_x v =
  let a, b = Packed.to_plane_values v in
  Packed.logand a b

(* [f v1 k1 v2 k2] on two values at their common width. *)
let both f x y =
  match (x, y) with
  | Any, _ | _, Any -> Any
  | Bits x, Bits y ->
      let w = max (Packed.width x.v) (Packed.width y.v) in
      let xv, xk = widen w x.v x.k and yv, yk = widen w y.v y.k in
      f xv xk yv yk

(* A bit known on both sides, and the same on both, stays known. *)
let join a b =
  match (a, b) with
  | Bits x, Bits y when Packed.equal x.v y.v && Packed.equal x.k y.k -> a
  | _ ->
      both
        (fun xv xk yv yk ->
          let xa, xb = Packed.to_plane_values xv
          and ya, yb = Packed.to_plane_values yv in
          let diff = Packed.logor (Packed.logxor xa ya) (Packed.logxor xb yb) in
          part xv (Packed.logand (Packed.logand xk yk) (Packed.lognot diff)))
        a b

(* Abstract truth of a vector, mirroring [Packed.to_bool]: any known-1
   bit decides true regardless of the rest; all-known-0 decides false;
   known bits with x/z and no 1 decide the x outcome (concrete [to_bool]
   would return [None]). *)
type truth = T_true | T_false | T_x | T_unknown

let truth = function
  | Any -> T_unknown
  | Bits { v; k } -> (
      (* Unknown bits are 0, so any 1 in [v] is a known 1. *)
      match Packed.to_bool v with
      | Some true -> T_true
      | r when full k -> if r = Some false then T_false else T_x
      | _ -> T_unknown)

(* --- Abstract evaluation ------------------------------------------------ *)

(* [&], [|], [^] and [~^] with an operand not fully known: a bit known on
   both sides folds through the operator, and a known 0 (for [&]) or 1
   (for [|]) on either side decides the bit alone, as in [Packed.logand]
   and [Packed.logor]. An [Any] operand is top at the other's width. *)
let bitwise op a b =
  let top_as = function Any -> Any | Bits { v; _ } -> top_bits (Packed.width v) in
  let a, b =
    match (a, b) with
    | Any, _ -> (top_as b, b)
    | _, Any -> (a, top_as a)
    | _ -> (a, b)
  in
  both
    (fun xv xk yv yk ->
      let k = Packed.logand xk yk in
      let k =
        match op with
        | Band -> Packed.logor k (Packed.logor (known0 xv xk) (known0 yv yk))
        | Bor -> Packed.logor k (Packed.logor (known1 xv) (known1 yv))
        | _ -> k
      in
      part (Ops.binop op xv yv) k)
    a b

(* Conditional with an x/z test: the simulator's bitwise merge, known
   where both arms are known or either is a known x. *)
let xmerge =
  both (fun tv tk fv fk ->
      part (Packed.merge_x tv fv)
        (Packed.logor (Packed.logand tk fk)
           (Packed.logor (known_x tv) (known_x fv))))

(* A reduction of a value not fully known: a known controlling bit
   decides it alone, and a known x/z bit makes an xor-reduction x. *)
let reduce_partial op v k =
  let any m = Packed.to_bool m = Some true in
  match op with
  | (Uand | Unand) when any (known0 v k) -> bit (if op = Uand then 0 else 1)
  | (Uor | Unor) when any v -> bit (if op = Uor then 1 else 0)
  | (Uxor | Uxnor) when Packed.has_xz v -> x1
  | _ -> top_bits 1

(* A declared net's width, unknown bits; [Any] for an undeclared name. *)
let net_top d n = Option.fold ~none:Any ~some:top_bits (SMap.find_opt n d.d_widths)

(* The truth of a value as an abstract bit: [&&], [||] and [!] are the
   bitwise operators on it. *)
let truth_bit a =
  match truth a with
  | T_true -> bit 1
  | T_false -> bit 0
  | T_x -> x1
  | T_unknown -> top_bits 1

(* [aeval d m e] — abstract value of [e] given net values [m] (nets
   absent from [m] are top, so an empty map gives the parameters-only
   evaluation used for reachability proofs). Never raises; anything the
   concrete evaluator could fault on (oversized replication, parameter
   range-selects, unknown calls) is simply [Any]. *)
let rec aeval (d : denv) (m : aval SMap.t) (e : expr) : aval =
  match e.e with
  | Number v -> known (Packed.of_vec v)
  | IntLit n -> if n >= 0 then known (Packed.of_int 32 n) else Any
  | String _ -> known (Packed.zero 1)
  | Ident n -> (
      match (SMap.find_opt n d.d_params, SMap.find_opt n m) with
      | Some v, _ -> known v
      | None, Some v -> v
      | None, None -> net_top d n)
  | Index (n, ie) -> (
      match SMap.find_opt n d.d_params with
      | Some c -> (
          match to_known (aeval d m ie) with
          | Some iv -> (
              match Packed.to_int iv with
              | Some i -> known (Packed.of_bit (Packed.get c i))
              | None -> x1)
          | None -> top_bits 1)
      | None -> if SSet.mem n d.d_arrays then net_top d n else top_bits 1)
  | RangeSel (n, me, le) -> (
      if SMap.mem n d.d_params then Any
      else
        match (const_int d m me, const_int d m le) with
        | Some hi, Some lo -> top_bits (abs (hi - lo) + 1)
        | _ -> Any)
  | Unop (op, a) -> (
      let av = aeval d m a in
      match (to_known av, op, av) with
      | Some v, _, _ -> known (Ops.unop op v)
      | None, Uplus, _ -> av
      (* A value not fully known is true or unknown. *)
      | None, Unot, _ -> if truth av = T_true then bit 0 else top_bits 1
      | None, Ubnot, Bits { v; k } -> part (Packed.lognot v) k
      | None, Uminus, Bits { v; _ } -> top_bits (Packed.width v)
      | None, (Uminus | Ubnot), Any -> Any
      | None, _, Bits { v; k } -> reduce_partial op v k
      | None, _, Any -> top_bits 1)
  | Binop (op, a, b) -> (
      let av = aeval d m a in
      (* Short-circuit, as in the concrete evaluator. *)
      match (op, truth av) with
      | Land, T_false -> bit 0
      | Lor, T_true -> bit 1
      | _ -> (
          let bv = aeval d m b in
          match (to_known av, to_known bv) with
          | Some x, Some y -> known (Ops.binop op x y)
          | _ -> (
              match op with
              | Band | Bor | Bxor | Bxnor -> bitwise op av bv
              | Land -> bitwise Band (truth_bit av) (truth_bit bv)
              | Lor -> bitwise Bor (truth_bit av) (truth_bit bv)
              | Eq | Neq | Ceq | Cneq | Lt | Le | Gt | Ge -> top_bits 1
              | Add | Sub | Mul | Div | Mod -> (
                  match (awidth av, awidth bv) with
                  | Some wa, Some wb -> top_bits (max wa wb)
                  | _ -> Any)
              | Shl | Shr -> Option.fold ~none:Any ~some:top_bits (awidth av))))
  | Cond (c, t, f) -> (
      match truth (aeval d m c) with
      | T_true -> aeval d m t
      | T_false -> aeval d m f
      | T_x -> xmerge (aeval d m t) (aeval d m f)
      | T_unknown -> join (aeval d m t) (aeval d m f))
  | Concat [] -> Any
  | Concat (hd :: rest) ->
      (* The head is the most significant part. *)
      List.fold_left
        (fun acc x ->
          match (acc, aeval d m x) with
          | Bits h, Bits l
            when Packed.width h.v + Packed.width l.v <= max_vector_width ->
              Bits { v = Packed.concat h.v l.v; k = Packed.concat h.k l.k }
          | _ -> Any)
        (aeval d m hd) rest
  | Repl (n, x) -> (
      match to_known (aeval d m n) with
      | Some nv -> (
          match Packed.to_int nv with
          | Some c when c > 0 -> (
              match aeval d m x with
              | Bits { v; k }
                when Packed.repl_fits ~limit:max_vector_width c (Packed.width v) ->
                  Bits { v = Packed.replicate c v; k = Packed.replicate c k }
              | _ -> Any)
          | _ -> x1)
      | None -> Any)
  | Call (("$time" | "$stime"), _) -> top_bits 64
  | Call ("$random", _) -> top_bits 32
  | Call ("$clog2", [ a ]) -> (
      match to_known (aeval d m a) with
      | Some v -> known (Ops.clog2 v)
      | None -> top_bits 32)
  | Call _ -> Any

and const_int d m e = Option.bind (to_known (aeval d m e)) Packed.to_int

(* --- Exact constant evaluation ------------------------------------------ *)

(* [eval_const d e] is [Some v] only when the concrete evaluator returns
   [v] in every state without faulting. Requiring every subexpression to
   be fully known (not just the root) rules out values proved through a
   controlling bit while a sibling subterm could raise: with the whole
   tree known, the abstract computation retraces the concrete one call
   for call. *)
let eval_const d e =
  let fully_known =
    Ast_utils.fold_expr
      (fun ok x -> ok && to_known (aeval d SMap.empty x) <> None)
      true e
  in
  if fully_known then to_known (aeval d SMap.empty e) else None

(* --- Declaration environment construction ------------------------------ *)

(* Parameters-only integer value: range bounds, select bounds and
   replication counts, evaluated as the elaborator does. *)
let param_int d e = const_int d SMap.empty e

(* Width of an [msb:lsb] range or part-select with constant bounds. *)
let span_width d msb lsb =
  match (param_int d msb, param_int d lsb) with
  | Some m, Some l -> Some (abs (m - l) + 1)
  | _ -> None

let denv_of (m : module_decl) : denv =
  (* Every parameter first, in declaration order, each default evaluated
     under the parameters so far; then the nets, whose ranges may name a
     parameter declared after them. The elaborator's rule. Anything we
     cannot evaluate is simply left out (reads become top). *)
  let params =
    List.fold_left
      (fun d (it : item) ->
        match it.it with
        | ParamDecl (_, pairs) ->
            List.fold_left
              (fun d (name, e) ->
                match to_known (aeval d SMap.empty e) with
                | Some v -> { d with d_params = SMap.add name v d.d_params }
                | None -> d)
              d pairs
        | _ -> d)
      {
        d_params = SMap.empty;
        d_widths = SMap.empty;
        d_arrays = SSet.empty;
        d_regs = SSet.empty;
        d_inited = SSet.empty;
        d_inputs = SSet.empty;
        d_ports = SSet.empty;
        d_events = SSet.empty;
      }
      m.items
  in
  let width d = function
    | Some r -> Option.value (span_width d r.msb r.lsb) ~default:1
    | None -> 1
  in
  let set_width ~force name w d =
    if force || not (SMap.mem name d.d_widths) then
      { d with d_widths = SMap.add name w d.d_widths }
    else d
  in
  let add c n s = if c then SSet.add n s else s in
  List.fold_left
    (fun d (it : item) ->
      match it.it with
      | PortDecl (dir, kind, range, names) ->
          let w = width d range in
          List.fold_left
            (fun d n ->
              set_width ~force:(range <> None) n w
                {
                  d with
                  d_ports = SSet.add n d.d_ports;
                  d_inputs = add (dir <> Output) n d.d_inputs;
                  d_regs = add (kind = Some Reg) n d.d_regs;
                })
            d names
      | NetDecl (kind, range, decls) ->
          let w = if kind = Integer then 32 else width d range in
          List.fold_left
            (fun d dec ->
              let n = dec.d_name in
              set_width ~force:(range <> None || kind = Integer) n w
                {
                  d with
                  d_regs = add (kind = Reg) n d.d_regs;
                  d_arrays = add (dec.d_array <> None) n d.d_arrays;
                  d_inited = add (dec.d_init <> None) n d.d_inited;
                })
            d decls
      | EventDecl names ->
          List.fold_left
            (fun d n ->
              set_width ~force:false n 1
                { d with d_events = SSet.add n d.d_events })
            d names
      | _ -> d)
    params m.items

let param_value d n = SMap.find_opt n d.d_params
let net_width d n = SMap.find_opt n d.d_widths
let is_array d n = SSet.mem n d.d_arrays
let regs d = SSet.elements d.d_regs
let is_inited d n = SSet.mem n d.d_inited

(* --- Dynamic expression width ------------------------------------------- *)

(* The width of the vector the concrete evaluator would return —
   [None] when it depends on runtime values. Used by [Canon] to gate
   width-sensitive rewrites. [Analysis.width_of] asks a different
   question of the same environment: the self-determined width, which
   leaves unsized literals and parameters to their context. *)
let rec expr_width d (e : expr) : int option =
  match e.e with
  | Number v -> Some (Packed.width (Packed.of_vec v))
  | IntLit _ -> Some 32
  | String _ -> Some 1
  | Ident n -> (
      match SMap.find_opt n d.d_params with
      | Some v -> Some (Packed.width v)
      | None ->
          if SSet.mem n d.d_arrays then None
          else SMap.find_opt n d.d_widths)
  | Index (n, _) ->
      if SSet.mem n d.d_arrays then SMap.find_opt n d.d_widths
      else Some 1
  | RangeSel (n, me, le) ->
      if SMap.mem n d.d_params then None else span_width d me le
  | Unop ((Uplus | Uminus | Ubnot), a) -> expr_width d a
  | Unop (_, _) -> Some 1
  | Binop ((Add | Sub | Mul | Div | Mod | Band | Bor | Bxor | Bxnor), a, b)
    -> (
      match (expr_width d a, expr_width d b) with
      | Some wa, Some wb -> Some (max wa wb)
      | _ -> None)
  | Binop ((Shl | Shr), a, _) -> expr_width d a
  | Binop (_, _, _) -> Some 1
  | Cond (_, t, f) -> (
      match (expr_width d t, expr_width d f) with
      | Some wt, Some wf when wt = wf -> Some wt
      | _ -> None)
  | Concat es ->
      List.fold_left
        (fun acc x ->
          match (acc, expr_width d x) with
          | Some a, Some w -> Some (a + w)
          | _ -> None)
        (Some 0) es
  | Repl (n, x) -> (
      match param_int d n with
      | Some k when k > 0 -> (
          match expr_width d x with
          | Some w when Packed.repl_fits ~limit:max_vector_width k w -> Some (k * w)
          | _ -> None)
      | Some _ -> Some 1
      | None -> None)
  | Call (("$time" | "$stime"), _) -> Some 64
  | Call ("$random", _) | Call ("$clog2", [ _ ]) -> Some 32
  | Call _ -> None

(* An expression the concrete evaluator is guaranteed to evaluate
   without faulting and without side effects: no system calls, no
   range-selects or replications (width checks can raise), no memory
   reads, and every identifier declared. *)
let rec safe_expr d (e : expr) : bool =
  match e.e with
  | Number _ | String _ -> true
  | IntLit n -> n >= 0
  | Ident n -> SMap.mem n d.d_widths || SMap.mem n d.d_params
  | Index (n, ie) ->
      (SMap.mem n d.d_widths || SMap.mem n d.d_params)
      && (not (SSet.mem n d.d_arrays))
      && safe_expr d ie
  | RangeSel _ | Repl _ | Call _ -> false
  | Unop (_, a) -> safe_expr d a
  | Binop (_, a, b) -> safe_expr d a && safe_expr d b
  | Cond (c, t, f) -> safe_expr d c && safe_expr d t && safe_expr d f
  | Concat es -> es <> [] && List.for_all (safe_expr d) es

(* --- Sensitivity gating -------------------------------------------------- *)

let stmt_has_anychange (s : stmt) =
  Ast_utils.fold_stmt
    (fun acc (x : stmt) ->
      acc
      ||
      match x.s with
      | EventCtrl (specs, _) -> List.mem AnyChange specs
      | _ -> false)
    (fun acc _ -> acc)
    false s

let module_has_anychange (m : module_decl) =
  List.exists
    (fun (it : item) ->
      match it.it with
      | Always s | Initial s -> stmt_has_anychange s
      | _ -> false)
    m.items

(* --- Case arms ------------------------------------------------------------ *)

(* What a case arm can do, given the subject: [Taken i] — pattern [i] is
   the first that definitely matches, so the arm runs whenever it is
   reached; [Never] — every pattern definitely misses; [Unreached] — an
   earlier arm is [Taken]; [Maybe] otherwise. *)
type fate = Taken of int | Never | Unreached | Maybe

(* The arms of a case statement whose subject has the fully known value
   [sv] (or is not fully known), mapped through [f arm fate] in order, as
   the simulator tries them. An arm's patterns go through [pconst] (their
   fully known value, if any) only after [f] has seen the earlier arms.
   Also returns whether some arm is [Taken], so the default never
   runs. *)
let map_arms kind sv pconst f arms =
  let fate patterns =
    match sv with
    | None -> Maybe
    | Some s ->
        let rec go i all_no = function
          | [] -> if all_no then Never else Maybe
          | p :: ps -> (
              match pconst p with
              | Some pv when Ops.case_matches kind s pv -> Taken i
              | Some _ -> go (i + 1) all_no ps
              | None -> go (i + 1) false ps)
        in
        go 0 true patterns
  in
  let taken = ref false in
  let arms =
    List.map
      (fun arm ->
        let fate = if !taken then Unreached else fate arm.patterns in
        (match fate with Taken _ -> taken := true | _ -> ());
        f arm fate)
      arms
  in
  (arms, !taken)

(* --- Fixpoint ------------------------------------------------------------ *)

type facts = {
  f_env : denv;
  f_values : aval SMap.t; (* per-net fixpoint values *)
  f_reads : SSet.t; (* names read by any expression or event control *)
  f_written : SSet.t; (* lvalue bases and initializers *)
  f_dead : SSet.t; (* declared, not a port or event, never read *)
  f_decl_node : int SMap.t; (* name -> declaring item id *)
}

let reads_of (m : module_decl) =
  List.fold_left
    (fun acc it -> SSet.union acc (Deps.item_reads it))
    SSet.empty m.items

(* Process and continuous-assignment targets, and initialized nets. *)
let written_of d (m : module_decl) =
  List.fold_left
    (fun acc (it : item) ->
      match it.it with
      | Always s | Initial s -> SSet.union acc (snd (Deps.stmt_access s))
      | ContAssign pairs ->
          List.fold_left
            (fun acc (lhs, _) ->
              List.fold_left (Fun.flip SSet.add) acc (Ast_utils.lvalue_base lhs))
            acc pairs
      | _ -> acc)
    d.d_inited m.items

(* A declared net nobody reads; ports and named events never are. *)
let is_dead d reads n =
  SMap.mem n d.d_widths
  && (not (SSet.mem n reads))
  && (not (SSet.mem n d.d_ports))
  && not (SSet.mem n d.d_events)

let decl_nodes (m : module_decl) =
  List.fold_left
    (fun acc (it : item) ->
      let names =
        match it.it with
        | PortDecl (_, _, _, names) | EventDecl names -> names
        | NetDecl (_, _, decls) -> List.map (fun dec -> dec.d_name) decls
        | _ -> []
      in
      List.fold_left
        (fun acc n -> if SMap.mem n acc then acc else SMap.add n it.iid acc)
        acc names)
    SMap.empty m.items

let facts_of (m : module_decl) : facts =
  let d = denv_of m in
  let map = ref SMap.empty in
  let contribute name v =
    let v =
      match SMap.find_opt name d.d_widths with
      | Some w -> resize w v
      | None -> v
    in
    map :=
      SMap.update name
        (function Some old -> Some (join old v) | None -> Some v)
        !map
  in
  let assign lhs v =
    match lhs with
    | LId n -> contribute n v
    | LIndex _ | LRange _ | LConcat _ ->
        (* A partial write: every bit of the target goes top. *)
        List.iter (fun n -> contribute n Any) (Ast_utils.lvalue_base lhs)
  in
  let value e = to_known (aeval d !map e) in
  (* Reachability-aware abstract execution of one process body,
     accumulating write contributions under the current map. *)
  let rec absexec (s : stmt) =
    match s.s with
    | Block (_, body) -> List.iter absexec body
    | Blocking (lhs, _, rhs) | Nonblocking (lhs, _, rhs) ->
        assign lhs (aeval d !map rhs)
    | If (c, t, e) -> (
        match truth (aeval d !map c) with
        | T_true -> Option.iter absexec t
        | T_false | T_x -> Option.iter absexec e
        | T_unknown ->
            Option.iter absexec t;
            Option.iter absexec e)
    | CaseStmt (kind, subject, arms, default) ->
        let _, taken =
          map_arms kind (value subject) value
            (fun arm -> function
              | Taken _ | Maybe -> Option.iter absexec arm.arm_body
              | Never | Unreached -> ())
            arms
        in
        if not taken then Option.iter absexec default
    | For (init, cond, step, body) -> (
        absexec init;
        match truth (aeval d !map cond) with
        | T_false | T_x -> ()
        | _ ->
            absexec body;
            absexec step)
    | While (c, body) -> (
        match truth (aeval d !map c) with
        | T_false | T_x -> ()
        | _ -> absexec body)
    | Repeat (c, body) -> (
        match Option.map Packed.to_int (value c) with
        | Some (Some n) when n > 0 -> absexec body
        | Some _ -> ()
        | None -> absexec body)
    | Forever body -> absexec body
    | Delay (_, k) | EventCtrl (_, k) | Wait (_, k) ->
        Option.iter absexec k
    | Trigger _ | SysTask _ | Null -> ()
  in
  let round () =
    List.iter
      (fun (it : item) ->
        match it.it with
        | PortDecl ((Input | Inout), _, _, names) ->
            List.iter (fun n -> contribute n Any) names
        | NetDecl (kind, _, decls) ->
            List.iter
              (fun dec ->
                match (dec.d_init, kind) with
                | Some e, _ -> contribute dec.d_name (aeval d !map e)
                | None, (Reg | Integer) ->
                    (* Power-up value of uninitialized storage is x (top
                       when too wide to track, like [top_bits]). *)
                    let w =
                      Option.value (SMap.find_opt dec.d_name d.d_widths)
                        ~default:1
                    in
                    contribute dec.d_name
                      (if w > max_vector_width then Any
                       else known (Packed.all_x w))
                | None, _ -> ())
              decls
        | ContAssign pairs ->
            List.iter (fun (lhs, rhs) -> assign lhs (aeval d !map rhs)) pairs
        | Always body | Initial body -> absexec body
        | Instance { conns; _ } ->
            (* The child may drive any net it is connected to. *)
            List.iter
              (fun conn ->
                match conn with
                | Named (_, Some e) | Positional e ->
                    List.iter
                      (fun n ->
                        if SMap.mem n d.d_widths then contribute n Any)
                      (Ast_utils.expr_idents e)
                | Named (_, None) -> ())
              conns
        | PortDecl (Output, _, _, _) | ParamDecl _ | EventDecl _ | DefineStub _
          ->
            ())
      m.items
  in
  let stable = ref false in
  let rounds = ref 0 in
  while (not !stable) && !rounds < 200 do
    incr rounds;
    let before = !map in
    round ();
    stable := SMap.equal ( = ) before !map
  done;
  let reads = reads_of m in
  {
    f_env = d;
    f_values = !map;
    f_reads = reads;
    f_written = written_of d m;
    f_dead =
      SMap.fold
        (fun n _ acc -> if is_dead d reads n then SSet.add n acc else acc)
        d.d_widths SSet.empty;
    f_decl_node = decl_nodes m;
  }

let known_bits f n =
  match SMap.find_opt n f.f_values with
  | Some (Bits { v; k }) -> Some (v, k)
  | _ -> None

(* --- Lint findings ------------------------------------------------------- *)

(* Constant conditions, computed from dataflow facts: the fixpoint proves
   conditions over nets with constant drivers, not just parameters and
   literals, and x-decided conditions are reported too. *)
let const_cond_findings ~modname (m : module_decl) (f : facts) :
    Lint.finding list =
  let acc = ref [] in
  let flag node fmt =
    Printf.ksprintf
      (fun msg ->
        acc :=
          Lint.finding Lint.Warning "constant-condition" ~modname node "%s" msg
          :: !acc)
      fmt
  in
  let eval e = aeval f.f_env f.f_values e in
  let check node what c =
    match truth (eval c) with
    | T_unknown -> ()
    | t ->
        flag node "%s is constantly %s: a branch is unreachable" what
          (match t with T_true -> "true" | T_false -> "false" | _ -> "x")
  in
  Ast_utils.fold_module
    (fun () (s : stmt) ->
      match s.s with
      | If (c, _, _) -> check s.sid "if condition" c
      | While (c, _) -> check s.sid "while condition" c
      | CaseStmt (_, subject, _, _) when to_known (eval subject) <> None ->
          flag s.sid "case subject is constant: all but one arm are unreachable"
      | _ -> ())
    (fun () (e : expr) ->
      match e.e with
      | Cond (c, _, _) -> check e.eid "conditional-expression test" c
      | _ -> ())
    () m;
  List.rev !acc

(* The remaining dataflow rules: constant nets, x sources, unreachable
   case arms and dead assignments. Ordering is pinned by the analyze
   golden fixture: constant-net then x-source (both name-sorted), then
   unreachable-code and dead-assignment in source order. *)
let extra_findings ~modname (m : module_decl) (f : facts) :
    Lint.finding list =
  let d = f.f_env and values = f.f_values in
  let acc = ref [] in
  let flag rule node msg =
    acc := Lint.finding Lint.Warning rule ~modname node "%s" msg :: !acc
  in
  let per_net rule =
    SMap.iter
      (fun name v ->
        if SMap.mem name d.d_widths then
          match rule name v with
          | Some (id, msg) ->
              flag id
                (Option.value (SMap.find_opt name f.f_decl_node) ~default:m.mid)
                msg
          | None -> ())
      values
  in
  (* constant-net: a read (or output) net that settles to one fully
     defined value in every execution. *)
  per_net (fun name v ->
      match to_known v with
      | Some p
        when (not (Packed.has_xz p))
             && (SSet.mem name f.f_reads
                || (SSet.mem name d.d_ports && not (SSet.mem name d.d_inputs)))
        ->
          let w = Packed.width p in
          Some
            ( "constant-net",
              Printf.sprintf "%s is constantly %d'b%s" name w
                (String.init w (fun i -> Bit.to_char (Packed.get p (w - 1 - i))))
            )
      | _ -> None);
  (* x-source: a driven, read net with definitely-x/z bits at fixpoint
     (unknown bits are 0, so an x/z in the value is a known one). *)
  per_net (fun name v ->
      match v with
      | Bits { v; _ }
        when Packed.has_xz v && SSet.mem name f.f_reads
             && SSet.mem name f.f_written ->
          Some
            ( "x-source",
              name
              ^ " carries x/z bits in steady state: x propagates to its readers"
            )
      | _ -> None);
  let dead_targets node lhs =
    match Ast_utils.lvalue_base lhs with
    | bases when bases <> [] && List.for_all (fun n -> SSet.mem n f.f_dead) bases
      ->
        flag "dead-assignment" node
          ("assignment to " ^ String.concat ", " bases
         ^ " is dead: the target is never read")
    | _ -> ()
  in
  let check_stmt () (s : stmt) =
    match s.s with
    | CaseStmt (kind, subject, arms, _) -> (
        (* unreachable-code: case arms that can never (or never again)
           match. *)
        let const e = to_known (aeval d values e) in
        match const subject with
        | None -> ()
        | sv ->
            ignore
              (map_arms kind sv const
                 (fun arm -> function
                   | Unreached ->
                       flag "unreachable-code" arm.arm_id
                         "case arm is unreachable: an earlier arm always \
                          matches"
                   | Never ->
                       flag "unreachable-code" arm.arm_id
                         "case arm never matches: the subject is constant"
                   | Taken _ | Maybe -> ())
                 arms))
    | Blocking (lhs, _, _) | Nonblocking (lhs, _, _) -> dead_targets s.sid lhs
    | _ -> ()
  in
  Ast_utils.fold_module check_stmt (fun () _ -> ()) () m;
  List.iter
    (fun (it : item) ->
      match it.it with
      | ContAssign pairs ->
          List.iter (fun (lhs, _) -> dead_targets it.iid lhs) pairs
      | _ -> ())
    m.items;
  List.rev !acc

(* --- Dead-edit erasure --------------------------------------------------- *)

(* [erase m] rewrites [m] into a canonical representative of its
   fitness-equivalence class by normalizing code that provably cannot
   influence a simulation:

   - statements inside branches decided by parameters and literals alone
     (the parameters-only abstract evaluation is exact there) collapse
     to a canonical marker;
   - blocking stores to never-read non-port nets become [Null] (the
     statement still ticks, preserving step budgets exactly), and
     non-blocking ones become one canonical scheduled-NBA marker;
   - dead continuous assignments become one canonical pair.

   Erasure is skipped inside any process containing `@*`: its
   sensitivity list is derived from the whole body, so even dead text
   changes wake-up times. Dead stores are erased only when every
   right-hand side is [safe_expr] — guaranteed not to fault — so a
   candidate whose dead code would crash the evaluator is never
   conflated with one whose dead code would not. *)

let null_stmt = { sid = 0; s = Null }
let zero_expr = { eid = 0; e = Number (Packed.to_vec (Packed.zero 1)) }

let erase (m : module_decl) : module_decl =
  let d = denv_of m in
  let reads = reads_of m in
  let ptruth c = truth (aeval d SMap.empty c) in
  let pconst e = to_known (aeval d SMap.empty e) in
  let rec safe_lvalue lv =
    match lv with
    | LId _ -> true
    | LIndex (_, ie) -> safe_expr d ie
    | LRange (_, a, b) -> safe_expr d a && safe_expr d b
    | LConcat lvs -> List.for_all safe_lvalue lvs
  in
  let dead_store lhs rhs =
    (match Ast_utils.lvalue_base lhs with
    | [] -> false
    | bases -> List.for_all (is_dead d reads) bases)
    && safe_lvalue lhs && safe_expr d rhs
  in
  let rec er (s : stmt) : stmt =
    match s.s with
    | Block (lbl, body) -> { s with s = Block (lbl, List.map er body) }
    | Blocking (lhs, None, rhs) when dead_store lhs rhs -> { s with s = Null }
    | Nonblocking (lhs, None, rhs) when dead_store lhs rhs ->
        { s with s = Nonblocking (LId "", None, zero_expr) }
    | If (c, t, e) -> (
        match ptruth c with
        | T_true -> { s with s = If (c, Option.map er t, None) }
        | T_false | T_x -> { s with s = If (c, None, Option.map er e) }
        | T_unknown ->
            { s with s = If (c, Option.map er t, Option.map er e) })
    | CaseStmt (kind, subject, arms, default) ->
        let arms, taken =
          map_arms kind (pconst subject) pconst
            (fun arm -> function
              | Unreached ->
                  (* Execution can never reach this arm: neither its
                     patterns nor its body are ever evaluated. *)
                  {
                    arm with
                    patterns = List.map (fun _ -> zero_expr) arm.patterns;
                    arm_body = None;
                  }
              | Taken i ->
                  (* Patterns after the first definite match are never
                     evaluated either. *)
                  {
                    arm with
                    patterns =
                      List.mapi
                        (fun j p -> if j > i then zero_expr else p)
                        arm.patterns;
                    arm_body = Option.map er arm.arm_body;
                  }
              | Never -> { arm with arm_body = None }
              | Maybe -> { arm with arm_body = Option.map er arm.arm_body })
            arms
        in
        let default = if taken then None else Option.map er default in
        { s with s = CaseStmt (kind, subject, arms, default) }
    | For (init, cond, step, body) -> (
        match ptruth cond with
        | T_false | T_x ->
            { s with s = For (er init, cond, null_stmt, null_stmt) }
        | _ -> { s with s = For (er init, cond, er step, er body) })
    | While (c, body) -> (
        match ptruth c with
        | T_false | T_x -> { s with s = While (c, null_stmt) }
        | _ -> { s with s = While (c, er body) })
    | Repeat (c, body) -> (
        match Option.map Packed.to_int (pconst c) with
        | Some (Some n) when n > 0 -> { s with s = Repeat (c, er body) }
        | Some _ -> { s with s = Repeat (c, null_stmt) }
        | None -> { s with s = Repeat (c, er body) })
    | Forever body -> { s with s = Forever (er body) }
    | Delay (d0, k) -> { s with s = Delay (d0, Option.map er k) }
    | EventCtrl (specs, k) -> { s with s = EventCtrl (specs, Option.map er k) }
    | Wait (c, k) -> { s with s = Wait (c, Option.map er k) }
    | Blocking _ | Nonblocking _ | Trigger _ | SysTask _ | Null -> s
  in
  let items =
    List.map
      (fun (it : item) ->
        match it.it with
        | Always body when not (stmt_has_anychange body) ->
            { it with it = Always (er body) }
        | Initial body when not (stmt_has_anychange body) ->
            { it with it = Initial (er body) }
        | ContAssign pairs ->
            let dead (lhs, rhs) =
              if dead_store lhs rhs then (LId "", zero_expr) else (lhs, rhs)
            in
            { it with it = ContAssign (List.map dead pairs) }
        | _ -> it)
      m.items
  in
  { m with items }

let prune_hash (m : module_decl) : string =
  Ast_utils.structural_hash (erase m)
