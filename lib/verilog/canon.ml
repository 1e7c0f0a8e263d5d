(* Semantic canonicalization of expressions, producing a [semantic_hash]
   that refines [Ast_utils.structural_hash]: two modules with equal
   semantic hashes evaluate identically under the event-driven
   simulator, so the repair loop can fold one's fitness onto the other
   without simulating.

   Only expressions are rewritten — statement structure is untouched,
   because the engine charges one budget tick per executed statement and
   the equivalence must preserve step counts exactly (they feed the
   $random stream and the simulation budgets).

   Rewrites come in two classes:

   - identifier-preserving (always applied): folding subtrees that
     [Dataflow.eval_const] proves constant and non-faulting, unsized
     literal normalization (IntLit -> 32-bit Number, the evaluator's
     rule), parameter substitution (parameters elaborate to constants),
     De Morgan normalization, triple-! collapse, and commutative operand
     ordering. These keep the identifier multiset of every expression,
     hence every sensitivity list and wake-up schedule.

   - identifier-dropping (applied only when the module has no `@*`
     process): constant-decided `?:` selection, `?:` with structurally
     equal arms, and `&&`/`||` absorbed by a constant operand. Dropping
     text from an `@*` body would change its inferred sensitivity and
     with it the tick schedule, so these are gated.

   Notable omissions, deliberate: `a & a = a`, `a & 1 = a`, `a | 0 = a`
   and the arithmetic identities are all false on 4-valued logic (z
   operands degrade to x through every operator, x poisons arithmetic
   wholesale), so no absorption/identity rule that could change an x/z
   outcome is applied — see DESIGN.md "Static pruning". *)

open Ast
module Packed = Logic4.Packed

type ctx = { d : Dataflow.denv; drop_ok : bool }

(* Expression identity modulo node ids, via the structural hash
   primitives (ast_utils exposes them; 128 bits, the same identity the
   evaluation memo table already relies on). *)
let expr_key (e : expr) : string =
  let st = Ast_utils.hash_start () in
  Ast_utils.feed_expr st e;
  Ast_utils.hash_hex st

let num v = { eid = 0; e = Number (Packed.to_vec v) }

let const_bool ctx (e : expr) : bool option =
  match Dataflow.eval_const ctx.d e with
  | Some v -> Packed.to_bool v
  | None -> None

let commutative = function
  | Add | Mul | Band | Bor | Bxor | Bxnor | Eq | Neq | Ceq | Cneq | Land
  | Lor ->
      true
  | _ -> false

let rec canon ctx (e : expr) : expr =
  let e =
    match e.e with
    | Number _ | String _ | IntLit _ | Ident _ -> e
    | Index (n, ie) -> { e with e = Index (n, canon ctx ie) }
    | RangeSel (n, a, b) ->
        { e with e = RangeSel (n, canon ctx a, canon ctx b) }
    | Unop (op, a) -> simp_unop ctx e op (canon ctx a)
    | Binop (op, a, b) -> simp_binop ctx e op (canon ctx a) (canon ctx b)
    | Cond (c, t, f) ->
        simp_cond ctx e (canon ctx c) (canon ctx t) (canon ctx f)
    | Concat es -> { e with e = Concat (List.map (canon ctx) es) }
    | Repl (n, x) -> { e with e = Repl (canon ctx n, canon ctx x) }
    | Call (f, args) -> { e with e = Call (f, List.map (canon ctx) args) }
  in
  match e.e with
  | Number _ | String _ -> e
  | Ident n -> (
      (* Parameters elaborate to constants; substituting the value is
         exact and never changes a sensitivity list (constants are not
         watchable variables). *)
      match Dataflow.param_value ctx.d n with
      | Some v -> num v
      | None -> e)
  | IntLit n when n >= 0 ->
      (* The evaluator's rule for unsized literals. *)
      num (Packed.of_int 32 n)
  | _ -> (
      match Dataflow.eval_const ctx.d e with
      | Some v -> num v
      | None -> e)

and simp_unop ctx e op (a : expr) : expr =
  match (op, a.e) with
  (* De Morgan, logical form: exact on all 16 input combinations
     including x/z and the short-circuit cases. *)
  | Unot, Binop (Land, x, y) ->
      canon ctx
        {
          e with
          e =
            Binop
              ( Lor,
                { eid = 0; e = Unop (Unot, x) },
                { eid = 0; e = Unop (Unot, y) } );
        }
  | Unot, Binop (Lor, x, y) ->
      canon ctx
        {
          e with
          e =
            Binop
              ( Land,
                { eid = 0; e = Unop (Unot, x) },
                { eid = 0; e = Unop (Unot, y) } );
        }
  (* !!!a = !a — ! yields a 0/1/x bit and !! is the identity there. *)
  | Unot, Unop (Unot, { e = Unop (Unot, inner); _ }) ->
      { e with e = Unop (Unot, inner) }
  (* De Morgan, bitwise form: sound only when both operand widths are
     statically equal (zero-extension is not symmetric under ~). *)
  | Ubnot, Binop (Band, x, y) when equal_widths ctx x y ->
      canon ctx
        {
          e with
          e =
            Binop
              ( Bor,
                { eid = 0; e = Unop (Ubnot, x) },
                { eid = 0; e = Unop (Ubnot, y) } );
        }
  | Ubnot, Binop (Bor, x, y) when equal_widths ctx x y ->
      canon ctx
        {
          e with
          e =
            Binop
              ( Band,
                { eid = 0; e = Unop (Ubnot, x) },
                { eid = 0; e = Unop (Ubnot, y) } );
        }
  | _ -> { e with e = Unop (op, a) }

and equal_widths ctx x y =
  match (Dataflow.expr_width ctx.d x, Dataflow.expr_width ctx.d y) with
  | Some wx, Some wy -> wx = wy
  | _ -> false

and simp_binop ctx e op (a : expr) (b : expr) : expr =
  let absorbed =
    if not ctx.drop_ok then None
    else
      match op with
      | Land -> (
          (* A constant-false left operand short-circuits; a
             constant-false right operand forces 0 for any left value
             (x && 0 = 0) provided the left side cannot fault. *)
          match (const_bool ctx a, const_bool ctx b) with
          | Some false, _ -> Some (num (Packed.of_int 1 0))
          | _, Some false when Dataflow.safe_expr ctx.d a ->
              Some (num (Packed.of_int 1 0))
          | _ -> None)
      | Lor -> (
          match (const_bool ctx a, const_bool ctx b) with
          | Some true, _ -> Some (num (Packed.of_int 1 1))
          | _, Some true when Dataflow.safe_expr ctx.d a ->
              Some (num (Packed.of_int 1 1))
          | _ -> None)
      | _ -> None
  in
  match absorbed with
  | Some r -> r
  | None ->
      let a, b =
        if commutative op && expr_key a > expr_key b then (b, a)
        else (a, b)
      in
      { e with e = Binop (op, a, b) }

and simp_cond ctx e (c : expr) (t : expr) (f : expr) : expr =
  if ctx.drop_ok then
    match const_bool ctx c with
    | Some true -> t
    | Some false -> f
    | None ->
        if expr_key t = expr_key f && Dataflow.safe_expr ctx.d c then
          (* Equal arms agree bit for bit even under an x test (the
             x-merge of equal vectors is the vector itself); the
             dropped test is proved non-faulting. *)
          t
        else { e with e = Cond (c, t, f) }
  else { e with e = Cond (c, t, f) }

(* --- Module-level canonicalization -------------------------------------- *)

let rec canon_lvalue ctx (lv : lvalue) : lvalue =
  match lv with
  | LId _ -> lv
  | LIndex (n, i) -> LIndex (n, canon ctx i)
  | LRange (n, a, b) -> LRange (n, canon ctx a, canon ctx b)
  | LConcat lvs -> LConcat (List.map (canon_lvalue ctx) lvs)

(* Event-spec expressions keep the no-drop context unconditionally:
   waiter registration follows their support set, so only
   identifier-preserving rewrites are safe there. *)
let canon_spec spec_ctx = function
  | Posedge e -> Posedge (canon spec_ctx e)
  | Negedge e -> Negedge (canon spec_ctx e)
  | Level e -> Level (canon spec_ctx e)
  | AnyChange -> AnyChange

let rec canon_stmt ctx spec_ctx (s : stmt) : stmt =
  let cs = canon_stmt ctx spec_ctx in
  let ce = canon ctx in
  let desc =
    match s.s with
    | Block (lbl, body) -> Block (lbl, List.map cs body)
    | Blocking (lhs, d, rhs) ->
        Blocking (canon_lvalue ctx lhs, Option.map ce d, ce rhs)
    | Nonblocking (lhs, d, rhs) ->
        Nonblocking (canon_lvalue ctx lhs, Option.map ce d, ce rhs)
    | If (c, t, e) -> If (ce c, Option.map cs t, Option.map cs e)
    | CaseStmt (kind, subject, arms, default) ->
        CaseStmt
          ( kind,
            ce subject,
            List.map
              (fun arm ->
                {
                  arm with
                  patterns = List.map ce arm.patterns;
                  arm_body = Option.map cs arm.arm_body;
                })
              arms,
            Option.map cs default )
    | For (init, cond, step, body) -> For (cs init, ce cond, cs step, cs body)
    | While (c, body) -> While (ce c, cs body)
    | Repeat (c, body) -> Repeat (ce c, cs body)
    | Forever body -> Forever (cs body)
    | Delay (d, k) -> Delay (ce d, Option.map cs k)
    | EventCtrl (specs, k) ->
        EventCtrl (List.map (canon_spec spec_ctx) specs, Option.map cs k)
    | Wait (c, k) -> Wait (ce c, Option.map cs k)
    | Trigger n -> Trigger n
    | SysTask (name, args) -> SysTask (name, List.map ce args)
    | Null -> Null
  in
  { s with s = desc }

let canon_module (m : module_decl) : module_decl =
  let d = Dataflow.denv_of m in
  let ctx = { d; drop_ok = not (Dataflow.module_has_anychange m) } in
  let spec_ctx = { ctx with drop_ok = false } in
  let ce = canon ctx in
  let items =
    List.map
      (fun (it : item) ->
        let desc =
          match it.it with
          | PortDecl _ | EventDecl _ | DefineStub _ -> it.it
          | NetDecl (kind, range, decls) ->
              NetDecl
                ( kind,
                  range,
                  List.map
                    (fun dec -> { dec with d_init = Option.map ce dec.d_init })
                    decls )
          | ParamDecl (lp, pairs) ->
              ParamDecl (lp, List.map (fun (n, e) -> (n, ce e)) pairs)
          | ContAssign pairs ->
              ContAssign
                (List.map
                   (fun (lhs, rhs) -> (canon_lvalue ctx lhs, ce rhs))
                   pairs)
          | Always body -> Always (canon_stmt ctx spec_ctx body)
          | Initial body -> Initial (canon_stmt ctx spec_ctx body)
          | Instance { mod_name; inst_name; params; conns } ->
              Instance
                {
                  mod_name;
                  inst_name;
                  params = List.map (fun (n, e) -> (n, ce e)) params;
                  conns =
                    List.map
                      (function
                        | Named (p, e) -> Named (p, Option.map ce e)
                        | Positional e -> Positional (ce e))
                      conns;
                }
        in
        { it with it = desc })
      m.items
  in
  { m with items }

let canon_expr (d : Dataflow.denv) ~drop_ok (e : expr) : expr =
  canon { d; drop_ok } e

let semantic_hash (m : module_decl) : string =
  Ast_utils.structural_hash (canon_module m)
