(* Forward dataflow over one module: abstract interpretation with a
   per-bit known-bits domain on 4-valued logic. Each bit of a net is
   tracked as either a known [Bit.t] (0/1/x/z) or unknown (top); values
   reach a fixpoint by join-accumulation over every driver — continuous
   assignments, procedural writes, declaration initializers, ports and
   instance connections — with control reachability pruned by the same
   abstract values. The abstract evaluator mirrors [Sim.Eval] operator by
   operator (same literal widths, the same short-circuit cases, the same
   x-merge on conditionals), so a fully-known abstract value is exactly
   the value the event-driven simulator would compute.

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
module Vec = Logic4.Vec
module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* --- Declaration environment ------------------------------------------- *)

(* The module's one declaration environment: this file's fixpoint,
   [Canon] and [prune_hash] read it, and so do [Analysis]'s width and
   uninit-reg rules. *)
type denv = {
  d_params : Vec.t SMap.t; (* parameters, evaluated in declaration order *)
  d_widths : int SMap.t; (* storage width of every declared net *)
  d_arrays : SSet.t; (* memories *)
  d_regs : SSet.t; (* reg storage; integers are loop counters, not state *)
  d_inited : SSet.t; (* has a declaration initializer *)
  d_inputs : SSet.t; (* input / inout ports *)
  d_ports : SSet.t;
  d_events : SSet.t; (* named events *)
}

(* --- Abstract values ---------------------------------------------------- *)

(* One bit: [Some b] — definitely [b] in every execution; [None] — top.
   A vector is an LSB-first array of such bits, or [Any] when even the
   width is unknown. *)
type abit = Bit.t option
type aval = Bits of abit array | Any

let known v = Bits (Array.init (Vec.width v) (fun i -> Some (Vec.get v i)))
(* Values wider than [max_vector_width] are not tracked bit by bit: the
   simulator rejects them, and the arrays would not fit in memory. *)
let top_bits w =
  if w > max_vector_width then Any else Bits (Array.make (max 1 w) None)

(* Reads zero-extend out of range, like [Vec.get]. *)
let abit_get a i = if i < Array.length a then a.(i) else Some Bit.V0

let to_vec = function
  | Any -> None
  | Bits a ->
      if Array.for_all Option.is_some a then
        Some
          (Vec.of_bits
             (Array.map (function Some b -> b | None -> Bit.X) a))
      else None

let resize w = function
  | Any -> top_bits w
  | Bits _ when w > max_vector_width -> Any
  | Bits a -> Bits (Array.init (max 1 w) (abit_get a))

let join_bit a b =
  match (a, b) with
  | Some x, Some y when Bit.equal x y -> Some x
  | _ -> None

let join a b =
  match (a, b) with
  | Any, _ | _, Any -> Any
  | Bits x, Bits y ->
      let w = max (Array.length x) (Array.length y) in
      Bits (Array.init w (fun i -> join_bit (abit_get x i) (abit_get y i)))

(* Abstract truth of a vector, mirroring [Vec.to_bool]: any known-1 bit
   decides true regardless of the rest; all-known-0 decides false; known
   bits with x/z and no 1 decide the x outcome (concrete [to_bool] would
   return [None]). *)
type truth = T_true | T_false | T_x | T_unknown

let truth = function
  | Any -> T_unknown
  | Bits a ->
      if Array.exists (function Some Bit.V1 -> true | _ -> false) a then
        T_true
      else if Array.for_all (function Some Bit.V0 -> true | _ -> false) a
      then T_false
      else if Array.for_all Option.is_some a then T_x
      else T_unknown

(* --- Abstract evaluation ------------------------------------------------ *)

(* Per-bit tables for the bitwise operators, agreeing with [Vec.logand]
   and friends: a known controlling value (0 for &, 1 for |) decides the
   bit even when the other side is unknown. *)
let band_bit a b =
  match (a, b) with
  | Some Bit.V0, _ | _, Some Bit.V0 -> Some Bit.V0
  | Some x, Some y -> Some (Bit.log_and x y)
  | _ -> None

let bor_bit a b =
  match (a, b) with
  | Some Bit.V1, _ | _, Some Bit.V1 -> Some Bit.V1
  | Some x, Some y -> Some (Bit.log_or x y)
  | _ -> None

let bxor_bit a b =
  match (a, b) with
  | Some x, Some y -> Some (Bit.log_xor x y)
  | _ -> None

let bnot_bit = function Some x -> Some (Bit.log_not x) | None -> None

let map2_bits f a b =
  let w = max (Array.length a) (Array.length b) in
  Bits (Array.init w (fun i -> f (abit_get a i) (abit_get b i)))

let x1 = known (Vec.all_x 1)

(* Exact operator application on fully-known values: precisely the calls
   [Sim.Eval] makes. *)
let unop_vec op v =
  match op with
  | Uplus -> v
  | Uminus -> Vec.neg v
  | Unot -> Vec.log_not v
  | Ubnot -> Vec.lognot v
  | Uand -> Vec.reduce_and v
  | Uor -> Vec.reduce_or v
  | Uxor -> Vec.reduce_xor v
  | Unand -> Vec.lognot (Vec.reduce_and v)
  | Unor -> Vec.lognot (Vec.reduce_or v)
  | Uxnor -> Vec.lognot (Vec.reduce_xor v)

let binop_vec op a b =
  match op with
  | Add -> Vec.add a b
  | Sub -> Vec.sub a b
  | Mul -> Vec.mul a b
  | Div -> Vec.div a b
  | Mod -> Vec.rem a b
  | Land -> Vec.log_and a b
  | Lor -> Vec.log_or a b
  | Band -> Vec.logand a b
  | Bor -> Vec.logor a b
  | Bxor -> Vec.logxor a b
  | Bxnor -> Vec.lognot (Vec.logxor a b)
  | Eq -> Vec.eq a b
  | Neq -> Vec.neq a b
  | Ceq -> Vec.case_eq a b
  | Cneq -> Vec.case_neq a b
  | Lt -> Vec.lt a b
  | Le -> Vec.le a b
  | Gt -> Vec.gt a b
  | Ge -> Vec.ge a b
  | Shl -> Vec.shift_left a b
  | Shr -> Vec.shift_right a b

(* Conditional with an x/z test: per-bit merge, agreeing bits survive,
   disagreeing bits go x — the widths zero-extend like the concrete
   merge in [Sim.Eval]. A known-x on either side forces x. *)
let xmerge t f =
  match (t, f) with
  | Any, _ | _, Any -> Any
  | Bits x, Bits y ->
      let w = max (Array.length x) (Array.length y) in
      Bits
        (Array.init w (fun i ->
             match (abit_get x i, abit_get y i) with
             | Some Bit.X, _ | _, Some Bit.X -> Some Bit.X
             | Some a, Some b ->
                 if Bit.equal a b then Some a else Some Bit.X
             | _ -> None))

let awidth = function Any -> None | Bits a -> Some (Array.length a)

(* [aeval d m e] — abstract value of [e] given net values [m] (nets
   absent from [m] are top, so an empty map gives the parameters-only
   evaluation used for reachability proofs). Never raises; anything the
   concrete evaluator could fault on (oversized replication, parameter
   range-selects, unknown calls) is simply [Any]. *)
let rec aeval (d : denv) (m : aval SMap.t) (e : expr) : aval =
  match e.e with
  | Number v -> known v
  | IntLit n -> if n >= 0 then known (Vec.of_int 32 n) else Any
  | String _ -> known (Vec.zero 1)
  | Ident n -> (
      match SMap.find_opt n d.d_params with
      | Some v -> known v
      | None -> (
          match SMap.find_opt n m with
          | Some v -> v
          | None -> (
              match SMap.find_opt n d.d_widths with
              | Some w -> top_bits w
              | None -> Any)))
  | Index (n, ie) -> (
      match SMap.find_opt n d.d_params with
      | Some c -> (
          match to_vec (aeval d m ie) with
          | Some iv -> (
              match Vec.to_int iv with
              | Some i -> known (Vec.of_bits [| Vec.get c i |])
              | None -> x1)
          | None -> top_bits 1)
      | None ->
          if SSet.mem n d.d_arrays then
            match SMap.find_opt n d.d_widths with
            | Some w -> top_bits w
            | None -> Any
          else top_bits 1)
  | RangeSel (n, me, le) -> (
      if SMap.mem n d.d_params then Any
      else
        match (const_int d m me, const_int d m le) with
        | Some hi, Some lo -> top_bits (abs (hi - lo) + 1)
        | _ -> Any)
  | Unop (op, a) -> (
      let av = aeval d m a in
      match to_vec av with
      | Some v -> known (unop_vec op v)
      | None -> (
          match (op, av) with
          | Uplus, _ -> av
          | Ubnot, Bits bits -> Bits (Array.map bnot_bit bits)
          | Unot, _ -> (
              match truth av with
              | T_true -> known (Vec.of_int 1 0)
              | T_false -> known (Vec.of_int 1 1)
              | T_x -> x1
              | T_unknown -> top_bits 1)
          | (Uand | Unand | Uor | Unor | Uxor | Uxnor), Bits bits ->
              reduce_partial op bits
          | (Uand | Unand | Uor | Unor | Uxor | Uxnor), Any -> top_bits 1
          | Uminus, Bits bits -> top_bits (Array.length bits)
          | (Uminus | Ubnot), Any -> Any))
  | Binop (op, a, b) -> (
      let av = aeval d m a in
      (* Short-circuit, as in the concrete evaluator. *)
      match (op, truth av) with
      | Land, T_false -> known (Vec.of_int 1 0)
      | Lor, T_true -> known (Vec.of_int 1 1)
      | _ -> (
          let bv = aeval d m b in
          match (to_vec av, to_vec bv) with
          | Some x, Some y -> known (binop_vec op x y)
          | _ -> (
              match op with
              | Band -> partial2 band_bit av bv
              | Bor -> partial2 bor_bit av bv
              | Bxor -> partial2 bxor_bit av bv
              | Bxnor -> (
                  match partial2 bxor_bit av bv with
                  | Bits bits -> Bits (Array.map bnot_bit bits)
                  | Any -> Any)
              | Land -> (
                  match (truth av, truth bv) with
                  | T_false, _ | _, T_false -> known (Vec.of_int 1 0)
                  | T_true, T_true -> known (Vec.of_int 1 1)
                  | (T_true | T_x), T_x | T_x, T_true -> x1
                  | _ -> top_bits 1)
              | Lor -> (
                  match (truth av, truth bv) with
                  | T_true, _ | _, T_true -> known (Vec.of_int 1 1)
                  | T_false, T_false -> known (Vec.of_int 1 0)
                  | (T_false | T_x), T_x | T_x, T_false -> x1
                  | _ -> top_bits 1)
              | Eq | Neq | Ceq | Cneq | Lt | Le | Gt | Ge -> top_bits 1
              | Add | Sub | Mul | Div | Mod -> (
                  match (awidth av, awidth bv) with
                  | Some wa, Some wb -> top_bits (max wa wb)
                  | _ -> Any)
              | Shl | Shr -> (
                  match awidth av with
                  | Some wa -> top_bits wa
                  | None -> Any))))
  | Cond (c, t, f) -> (
      match truth (aeval d m c) with
      | T_true -> aeval d m t
      | T_false -> aeval d m f
      | T_x -> xmerge (aeval d m t) (aeval d m f)
      | T_unknown -> join (aeval d m t) (aeval d m f))
  | Concat es -> (
      let vs = List.map (aeval d m) es in
      if List.exists (function Any -> true | _ -> false) vs then Any
      else
        (* Head is the most significant part; LSB-first storage means the
           last element's bits come first. *)
        let arrays =
          List.rev_map (function Bits a -> a | Any -> [||]) vs
        in
        let w = List.fold_left (fun acc a -> acc + Array.length a) 0 arrays in
        if w > max_vector_width then Any else Bits (Array.concat arrays))
  | Repl (n, x) -> (
      match to_vec (aeval d m n) with
      | Some nv -> (
          match Vec.to_int nv with
          | Some k when k > 0 -> (
              match aeval d m x with
              | Any -> Any
              | Bits bits ->
                  let w = Array.length bits in
                  if k * w > max_vector_width then Any
                  else
                    Bits
                      (Array.init (k * w) (fun i -> bits.(i mod w))))
          | _ -> x1)
      | None -> Any)
  | Call (("$time" | "$stime"), _) -> top_bits 64
  | Call ("$random", _) -> top_bits 32
  | Call _ -> Any

and const_int d m e =
  match to_vec (aeval d m e) with Some v -> Vec.to_int v | None -> None

and partial2 f a b =
  match (a, b) with
  | Bits x, Bits y -> map2_bits f x y
  | Any, Bits y -> map2_bits f (Array.make (Array.length y) None) y
  | Bits x, Any -> map2_bits f x (Array.make (Array.length x) None)
  | Any, Any -> Any

and reduce_partial op bits =
  (* A known controlling bit decides a reduction even with unknown
     neighbours; otherwise only fully-known inputs (handled by the
     caller) produce an exact answer. *)
  let lognot1 = function
    | Bits [| Some b |] -> Bits [| Some (Bit.log_not b) |]
    | _ -> top_bits 1
  in
  match op with
  | Uand | Unand ->
      let r =
        if Array.exists (function Some Bit.V0 -> true | _ -> false) bits
        then known (Vec.of_int 1 0)
        else top_bits 1
      in
      if op = Unand then lognot1 r else r
  | Uor | Unor ->
      let r =
        if Array.exists (function Some Bit.V1 -> true | _ -> false) bits
        then known (Vec.of_int 1 1)
        else top_bits 1
      in
      if op = Unor then lognot1 r else r
  | Uxor | Uxnor ->
      if
        Array.exists
          (function Some (Bit.X | Bit.Z) -> true | _ -> false)
          bits
      then x1
      else top_bits 1
  | _ -> top_bits 1

(* --- Exact constant evaluation ------------------------------------------ *)

let subexprs (e : expr) : expr list =
  match e.e with
  | Number _ | IntLit _ | String _ | Ident _ -> []
  | Index (_, i) -> [ i ]
  | RangeSel (_, a, b) -> [ a; b ]
  | Unop (_, a) -> [ a ]
  | Binop (_, a, b) -> [ a; b ]
  | Cond (c, t, f) -> [ c; t; f ]
  | Concat es -> es
  | Repl (n, x) -> [ n; x ]
  | Call (_, args) -> args

(* [eval_const d e] is [Some v] only when the concrete evaluator returns
   [v] in every state without faulting. Requiring every subexpression to
   be fully known (not just the root) rules out values proved through a
   controlling bit while a sibling subterm could raise: with the whole
   tree known, the abstract computation retraces the concrete one call
   for call. *)
let rec fully_known d e =
  to_vec (aeval d SMap.empty e) <> None
  && List.for_all (fully_known d) (subexprs e)

let eval_const d e =
  if fully_known d e then to_vec (aeval d SMap.empty e) else None

(* --- Declaration environment construction ------------------------------ *)

(* Parameters-only integer value: range bounds, select bounds and
   replication counts, evaluated as the elaborator does. *)
let param_int d e = const_int d SMap.empty e

(* Width of an [msb:lsb] range or part-select with constant bounds. *)
let span_width d msb lsb =
  match (param_int d msb, param_int d lsb) with
  | Some m, Some l -> Some (abs (m - l) + 1)
  | _ -> None

let range_width d (r : range) = span_width d r.msb r.lsb

let denv_of (m : module_decl) : denv =
  let d =
    ref
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
  in
  let set_width ~force name w =
    let cur = !d in
    if force || not (SMap.mem name cur.d_widths) then
      d := { cur with d_widths = SMap.add name w cur.d_widths }
  in
  List.iter
    (fun (it : item) ->
      match it.it with
      | ParamDecl (_, pairs) ->
          (* Declaration order, each default evaluated under the
             parameters so far — the elaborator's rule. Anything we
             cannot evaluate is simply left out (reads become top). *)
          List.iter
            (fun (name, e) ->
              match to_vec (aeval !d SMap.empty e) with
              | Some v ->
                  d :=
                    { !d with d_params = SMap.add name v !d.d_params }
              | None -> ())
            pairs
      | PortDecl (dir, kind, range, names) ->
          let w =
            match range with
            | Some r -> Option.value (range_width !d r) ~default:1
            | None -> 1
          in
          List.iter
            (fun n ->
              let cur = !d in
              d := { cur with d_ports = SSet.add n cur.d_ports };
              (match dir with
              | Input | Inout ->
                  d := { !d with d_inputs = SSet.add n !d.d_inputs }
              | Output -> ());
              if kind = Some Reg then
                d := { !d with d_regs = SSet.add n !d.d_regs };
              set_width ~force:(range <> None) n w)
            names
      | NetDecl (kind, range, decls) ->
          let base_w =
            match (kind, range) with
            | Integer, _ -> 32
            | _, Some r -> Option.value (range_width !d r) ~default:1
            | _, None -> 1
          in
          List.iter
            (fun dec ->
              if kind = Reg then
                d := { !d with d_regs = SSet.add dec.d_name !d.d_regs };
              if dec.d_array <> None then
                d := { !d with d_arrays = SSet.add dec.d_name !d.d_arrays };
              if dec.d_init <> None then
                d := { !d with d_inited = SSet.add dec.d_name !d.d_inited };
              set_width
                ~force:(range <> None || kind = Integer)
                dec.d_name base_w)
            decls
      | EventDecl names ->
          List.iter
            (fun n ->
              d := { !d with d_events = SSet.add n !d.d_events };
              set_width ~force:false n 1)
            names
      | _ -> ())
    m.items;
  !d

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
  | Number v -> Some (Vec.width v)
  | IntLit _ -> Some 32
  | String _ -> Some 1
  | Ident n -> (
      match SMap.find_opt n d.d_params with
      | Some v -> Some (Vec.width v)
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
          | Some w when k * w <= max_vector_width -> Some (k * w)
          | _ -> None)
      | Some _ -> Some 1
      | None -> None)
  | Call (("$time" | "$stime"), _) -> Some 64
  | Call ("$random", _) -> Some 32
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

(* --- Case-arm matching --------------------------------------------------- *)

(* Exact replica of the engine's pattern match, including wildcarding of
   subject bits under casez/casex. *)
let case_matches kind sv pv =
  let w = max (Vec.width sv) (Vec.width pv) in
  let wild (b : Bit.t) =
    match kind with
    | Case -> false
    | Casez -> b = Bit.Z
    | Casex -> b = Bit.X || b = Bit.Z
  in
  let rec go i =
    if i >= w then true
    else
      let a = Vec.get sv i and b = Vec.get pv i in
      (wild a || wild b || Bit.equal a b) && go (i + 1)
  in
  go 0

(* --- Fixpoint ------------------------------------------------------------ *)

type facts = {
  f_env : denv;
  f_values : aval SMap.t; (* per-net fixpoint values *)
  f_reads : SSet.t; (* names read by any expression, trigger or event *)
  f_written : SSet.t; (* lvalue bases and initializers *)
  f_dead : SSet.t; (* declared, not a port, never read *)
  f_decl_node : int SMap.t; (* name -> declaring item id *)
}

let reads_of (m : module_decl) =
  let from_exprs =
    Ast_utils.fold_module
      (fun acc (s : stmt) ->
        match s.s with Trigger n -> SSet.add n acc | _ -> acc)
      (fun acc (e : expr) ->
        match e.e with
        | Ident n | Index (n, _) | RangeSel (n, _, _) -> SSet.add n acc
        | _ -> acc)
      SSet.empty m
  in
  List.fold_left
    (fun acc (it : item) ->
      match it.it with
      | EventDecl names -> List.fold_left (Fun.flip SSet.add) acc names
      | _ -> acc)
    from_exprs m.items

let written_of (m : module_decl) =
  let add_lv acc lv =
    List.fold_left (Fun.flip SSet.add) acc (Ast_utils.lvalue_base lv)
  in
  let from_stmts =
    Ast_utils.fold_module
      (fun acc (s : stmt) ->
        match s.s with
        | Blocking (lhs, _, _) | Nonblocking (lhs, _, _) -> add_lv acc lhs
        | _ -> acc)
      (fun acc _ -> acc)
      SSet.empty m
  in
  List.fold_left
    (fun acc (it : item) ->
      match it.it with
      | ContAssign pairs ->
          List.fold_left (fun acc (lhs, _) -> add_lv acc lhs) acc pairs
      | NetDecl (_, _, decls) ->
          List.fold_left
            (fun acc dec ->
              if dec.d_init <> None then SSet.add dec.d_name acc else acc)
            acc decls
      | _ -> acc)
    from_stmts m.items

let decl_nodes (m : module_decl) =
  List.fold_left
    (fun acc (it : item) ->
      match it.it with
      | PortDecl (_, _, _, names) | EventDecl names ->
          List.fold_left
            (fun acc n ->
              if SMap.mem n acc then acc else SMap.add n it.iid acc)
            acc names
      | NetDecl (_, _, decls) ->
          List.fold_left
            (fun acc dec ->
              if SMap.mem dec.d_name acc then acc
              else SMap.add dec.d_name it.iid acc)
            acc decls
      | _ -> acc)
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
    let v' =
      match SMap.find_opt name !map with
      | Some old -> join old v
      | None -> v
    in
    map := SMap.add name v' !map
  in
  let assign lhs v =
    match lhs with
    | LId n -> contribute n v
    | LIndex (n, _) | LRange (n, _, _) ->
        (* A partial write: every bit of the target goes top. *)
        contribute n Any
    | LConcat lvs ->
        List.iter (fun n -> contribute n Any) (Ast_utils.lvalue_base (LConcat lvs))
  in
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
        let sv = to_vec (aeval d !map subject) in
        let definite = ref false in
        List.iter
          (fun arm ->
            if not !definite then begin
              let statuses =
                List.map
                  (fun p ->
                    match (sv, to_vec (aeval d !map p)) with
                    | Some s, Some pv ->
                        if case_matches kind s pv then `Yes else `No
                    | _ -> `Maybe)
                  arm.patterns
              in
              if List.mem `Yes statuses then begin
                Option.iter absexec arm.arm_body;
                definite := true
              end
              else if not (List.for_all (( = ) `No) statuses) then
                Option.iter absexec arm.arm_body
            end)
          arms;
        if not !definite then Option.iter absexec default
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
        match to_vec (aeval d !map c) with
        | Some v -> (
            match Vec.to_int v with
            | Some n when n > 0 -> absexec body
            | _ -> ())
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
        | PortDecl (dir, _, _, names) -> (
            match dir with
            | Input | Inout ->
                List.iter (fun n -> contribute n Any) names
            | Output -> ())
        | NetDecl (kind, _, decls) ->
            List.iter
              (fun dec ->
                (match dec.d_init with
                | Some e -> contribute dec.d_name (aeval d !map e)
                | None -> ());
                (* Power-up value of uninitialized storage is x (top
                   when too wide to track, like [top_bits]). *)
                match kind with
                | (Reg | Integer) when dec.d_init = None ->
                    let w =
                      Option.value (SMap.find_opt dec.d_name d.d_widths)
                        ~default:1
                    in
                    contribute dec.d_name
                      (if w > max_vector_width then Any
                       else known (Vec.all_x w))
                | _ -> ())
              decls
        | ContAssign pairs ->
            List.iter
              (fun (lhs, rhs) -> assign lhs (aeval d !map rhs))
              pairs
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
        | ParamDecl _ | EventDecl _ | DefineStub _ -> ())
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
  let written = written_of m in
  let dead =
    SMap.fold
      (fun n _ acc ->
        if
          (not (SSet.mem n reads))
          && (not (SSet.mem n d.d_ports))
          && not (SSet.mem n d.d_events)
        then SSet.add n acc
        else acc)
      d.d_widths SSet.empty
  in
  {
    f_env = d;
    f_values = !map;
    f_reads = reads;
    f_written = written;
    f_dead = dead;
    f_decl_node = decl_nodes m;
  }

(* --- Lint findings ------------------------------------------------------- *)

let truth_name = function
  | T_true -> Some "true"
  | T_false -> Some "false"
  | T_x -> Some "x"
  | T_unknown -> None

(* Constant conditions, computed from dataflow facts: the fixpoint proves
   conditions over nets with constant drivers, not just parameters and
   literals, and x-decided conditions are reported too. *)
let const_cond_findings ~modname (m : module_decl) (f : facts) :
    Lint.finding list =
  let d = f.f_env and values = f.f_values in
  let acc = ref [] in
  let flag node what name =
    acc :=
      Lint.finding Lint.Warning "constant-condition" ~modname node
        "%s is constantly %s: a branch is unreachable" what name
      :: !acc
  in
  let check_stmt (s : stmt) =
    match s.s with
    | If (c, _, _) -> (
        match truth_name (truth (aeval d values c)) with
        | Some name -> flag s.sid "if condition" name
        | None -> ())
    | While (c, _) -> (
        match truth_name (truth (aeval d values c)) with
        | Some name -> flag s.sid "while condition" name
        | None -> ())
    | CaseStmt (_, subject, _, _) -> (
        match to_vec (aeval d values subject) with
        | Some _ ->
            acc :=
              Lint.finding Lint.Warning "constant-condition" ~modname s.sid
                "case subject is constant: all but one arm are unreachable"
              :: !acc
        | None -> ())
    | _ -> ()
  in
  let check_expr (e : expr) =
    match e.e with
    | Cond (c, _, _) -> (
        match truth_name (truth (aeval d values c)) with
        | Some name -> flag e.eid "conditional-expression test" name
        | None -> ())
    | _ -> ()
  in
  ignore
    (Ast_utils.fold_module
       (fun () s -> check_stmt s)
       (fun () e -> check_expr e)
       () m);
  List.rev !acc

(* The remaining dataflow rules: constant nets, x sources, unreachable
   case arms and dead assignments. Ordering is pinned by the analyze
   golden fixture: constant-net then x-source (both name-sorted), then
   unreachable-code and dead-assignment in source order. *)
let extra_findings ~modname (m : module_decl) (f : facts) :
    Lint.finding list =
  let d = f.f_env and values = f.f_values in
  let acc = ref [] in
  (* constant-net: a read (or output) net that settles to one fully
     defined value in every execution. *)
  SMap.iter
    (fun name v ->
      if
        SMap.mem name d.d_widths
        && (SSet.mem name f.f_reads
           || (SSet.mem name d.d_ports && not (SSet.mem name d.d_inputs)))
      then
        match to_vec v with
        | Some vec when Vec.is_fully_defined vec ->
            let node =
              Option.value (SMap.find_opt name f.f_decl_node) ~default:m.mid
            in
            acc :=
              Lint.finding Lint.Warning "constant-net" ~modname node
                "%s is constantly %d'b%s" name (Vec.width vec)
                (Vec.to_string vec)
              :: !acc
        | _ -> ())
    values;
  (* x-source: a driven, read net with definitely-x/z bits at fixpoint. *)
  SMap.iter
    (fun name v ->
      let definitely_xz =
        match v with
        | Bits bits ->
            Array.exists
              (function Some (Bit.X | Bit.Z) -> true | _ -> false)
              bits
        | Any -> false
      in
      if
        definitely_xz
        && SMap.mem name d.d_widths
        && SSet.mem name f.f_reads
        && SSet.mem name f.f_written
      then
        let node =
          Option.value (SMap.find_opt name f.f_decl_node) ~default:m.mid
        in
        acc :=
          Lint.finding Lint.Warning "x-source" ~modname node
            "%s carries x/z bits in steady state: x propagates to its readers"
            name
          :: !acc)
    values;
  acc := List.rev !acc;
  (* unreachable-code: case arms that can never (or never again) match. *)
  let extras = ref [] in
  let check_stmt (s : stmt) =
    match s.s with
    | CaseStmt (kind, subject, arms, _) -> (
        match to_vec (aeval d values subject) with
        | None -> ()
        | Some sv ->
            let definite = ref false in
            List.iter
              (fun arm ->
                if !definite then
                  extras :=
                    Lint.finding Lint.Warning "unreachable-code" ~modname
                      arm.arm_id
                      "case arm is unreachable: an earlier arm always \
                       matches"
                    :: !extras
                else
                  let statuses =
                    List.map
                      (fun p ->
                        match to_vec (aeval d values p) with
                        | Some pv ->
                            if case_matches kind sv pv then `Yes else `No
                        | None -> `Maybe)
                      arm.patterns
                  in
                  if List.mem `Yes statuses then definite := true
                  else if List.for_all (( = ) `No) statuses then
                    extras :=
                      Lint.finding Lint.Warning "unreachable-code" ~modname
                        arm.arm_id
                        "case arm never matches: the subject is constant"
                      :: !extras)
              arms)
    | _ -> ()
  in
  let dead_targets lhs =
    match Ast_utils.lvalue_base lhs with
    | [] -> None
    | bases ->
        if List.for_all (fun n -> SSet.mem n f.f_dead) bases then
          Some (String.concat ", " bases)
        else None
  in
  let check_dead_stmt (s : stmt) =
    match s.s with
    | Blocking (lhs, _, _) | Nonblocking (lhs, _, _) -> (
        match dead_targets lhs with
        | Some names ->
            extras :=
              Lint.finding Lint.Warning "dead-assignment" ~modname s.sid
                "assignment to %s is dead: the target is never read" names
            :: !extras
        | None -> ())
    | _ -> ()
  in
  ignore
    (Ast_utils.fold_module
       (fun () s ->
         check_stmt s;
         check_dead_stmt s)
       (fun () _ -> ())
       () m);
  List.iter
    (fun (it : item) ->
      match it.it with
      | ContAssign pairs ->
          List.iter
            (fun (lhs, _) ->
              match dead_targets lhs with
              | Some names ->
                  extras :=
                    Lint.finding Lint.Warning "dead-assignment" ~modname
                      it.iid
                      "assignment to %s is dead: the target is never read"
                      names
                  :: !extras
              | None -> ())
            pairs
      | _ -> ())
    m.items;
  !acc @ List.rev !extras

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
let zero_expr = { eid = 0; e = Number (Vec.zero 1) }

let erase (m : module_decl) : module_decl =
  let d = denv_of m in
  let reads = reads_of m in
  let dead n =
    SMap.mem n d.d_widths
    && (not (SSet.mem n reads))
    && (not (SSet.mem n d.d_ports))
    && not (SSet.mem n d.d_events)
  in
  let ptruth c = truth (aeval d SMap.empty c) in
  let pconst e = to_vec (aeval d SMap.empty e) in
  let rec safe_lvalue lv =
    match lv with
    | LId _ -> true
    | LIndex (_, ie) -> safe_expr d ie
    | LRange (_, a, b) -> safe_expr d a && safe_expr d b
    | LConcat lvs -> List.for_all safe_lvalue lvs
  in
  let dead_store lhs delay rhs =
    delay = None
    && (match Ast_utils.lvalue_base lhs with
       | [] -> false
       | bases -> List.for_all dead bases)
    && safe_lvalue lhs && safe_expr d rhs
  in
  let rec er (s : stmt) : stmt =
    match s.s with
    | Block (lbl, body) -> { s with s = Block (lbl, List.map er body) }
    | Blocking (lhs, delay, rhs) ->
        if dead_store lhs delay rhs then { s with s = Null } else s
    | Nonblocking (lhs, delay, rhs) ->
        if dead_store lhs delay rhs then
          { s with s = Nonblocking (LId "", None, zero_expr) }
        else s
    | If (c, t, e) -> (
        match ptruth c with
        | T_true -> { s with s = If (c, Option.map er t, None) }
        | T_false | T_x -> { s with s = If (c, None, Option.map er e) }
        | T_unknown ->
            { s with s = If (c, Option.map er t, Option.map er e) })
    | CaseStmt (kind, subject, arms, default) -> (
        match pconst subject with
        | None ->
            {
              s with
              s =
                CaseStmt
                  ( kind,
                    subject,
                    List.map
                      (fun arm ->
                        { arm with arm_body = Option.map er arm.arm_body })
                      arms,
                    Option.map er default );
            }
        | Some sv ->
            let definite = ref false in
            let arms' =
              List.map
                (fun arm ->
                  if !definite then
                    (* Execution can never reach this arm: neither its
                       patterns nor its body are ever evaluated. *)
                    {
                      arm with
                      patterns = List.map (fun _ -> zero_expr) arm.patterns;
                      arm_body = None;
                    }
                  else
                    let statuses =
                      List.map
                        (fun p ->
                          match pconst p with
                          | Some pv ->
                              if case_matches kind sv pv then `Yes else `No
                          | None -> `Maybe)
                        arm.patterns
                    in
                    if List.mem `Yes statuses then begin
                      definite := true;
                      (* Patterns after the first definite match are
                         never evaluated either. *)
                      let seen = ref false in
                      let patterns =
                        List.map2
                          (fun p st ->
                            if !seen then zero_expr
                            else begin
                              if st = `Yes then seen := true;
                              p
                            end)
                          arm.patterns statuses
                      in
                      {
                        arm with
                        patterns;
                        arm_body = Option.map er arm.arm_body;
                      }
                    end
                    else if List.for_all (( = ) `No) statuses then
                      { arm with arm_body = None }
                    else
                      { arm with arm_body = Option.map er arm.arm_body })
                arms
            in
            let default' = if !definite then None else Option.map er default in
            { s with s = CaseStmt (kind, subject, arms', default') })
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
        let skipped =
          match pconst c with
          | Some v -> (
              match Vec.to_int v with Some n -> n <= 0 | None -> true)
          | None -> false
        in
        if skipped then { s with s = Repeat (c, null_stmt) }
        else { s with s = Repeat (c, er body) })
    | Forever body -> { s with s = Forever (er body) }
    | Delay (d0, k) -> { s with s = Delay (d0, Option.map er k) }
    | EventCtrl (specs, k) -> { s with s = EventCtrl (specs, Option.map er k) }
    | Wait (c, k) -> { s with s = Wait (c, Option.map er k) }
    | Trigger _ | SysTask _ | Null -> s
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
            let pairs' =
              List.map
                (fun (lhs, rhs) ->
                  if
                    (match Ast_utils.lvalue_base lhs with
                    | [] -> false
                    | bases -> List.for_all dead bases)
                    && safe_lvalue lhs && safe_expr d rhs
                  then (LId "", zero_expr)
                  else (lhs, rhs))
                pairs
            in
            { it with it = ContAssign pairs' }
        | _ -> it)
      m.items
  in
  { m with items }

let prune_hash (m : module_decl) : string =
  Ast_utils.structural_hash (erase m)
