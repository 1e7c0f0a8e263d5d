(* Generic AST machinery shared by the simulator and the repair engine:
   traversals, id lookup, and the pure rewriting primitives that repair
   patches are built from. ASTs are persistent; rewrites share unchanged
   subtrees. *)

open Ast

(* --- Folds ------------------------------------------------------------- *)

let rec fold_expr f acc (e : expr) =
  let acc = f acc e in
  match e.e with
  | Number _ | IntLit _ | Ident _ | String _ -> acc
  | Index (_, i) -> fold_expr f acc i
  | RangeSel (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Unop (_, a) -> fold_expr f acc a
  | Binop (_, a, b) -> fold_expr f (fold_expr f acc a) b
  | Cond (c, t, fl) -> fold_expr f (fold_expr f (fold_expr f acc c) t) fl
  | Concat es -> List.fold_left (fold_expr f) acc es
  | Repl (n, x) -> fold_expr f (fold_expr f acc n) x
  | Call (_, args) -> List.fold_left (fold_expr f) acc args

let fold_lvalue_exprs f acc lv =
  let rec go acc = function
    | LId _ -> acc
    | LIndex (_, e) -> fold_expr f acc e
    | LRange (_, a, b) -> fold_expr f (fold_expr f acc a) b
    | LConcat lvs -> List.fold_left go acc lvs
  in
  go acc lv

let fold_event_spec_exprs f acc = function
  | Posedge e | Negedge e | Level e -> fold_expr f acc e
  | AnyChange -> acc

(* [fold_stmt fs fe acc s] folds [fs] over every statement and [fe] over
   every expression, top-down. *)
let rec fold_stmt fs fe acc (s : stmt) =
  let acc = fs acc s in
  let e = fold_expr fe in
  let opt g acc = function None -> acc | Some x -> g acc x in
  match s.s with
  | Block (_, body) -> List.fold_left (fold_stmt fs fe) acc body
  | Blocking (lhs, d, rhs) | Nonblocking (lhs, d, rhs) ->
      let acc = fold_lvalue_exprs fe acc lhs in
      let acc = opt e acc d in
      e acc rhs
  | If (c, t, els) ->
      let acc = e acc c in
      let acc = opt (fold_stmt fs fe) acc t in
      opt (fold_stmt fs fe) acc els
  | CaseStmt (_, subject, arms, default) ->
      let acc = e acc subject in
      let acc =
        List.fold_left
          (fun acc arm ->
            let acc = List.fold_left e acc arm.patterns in
            opt (fold_stmt fs fe) acc arm.arm_body)
          acc arms
      in
      opt (fold_stmt fs fe) acc default
  | For (init, cond, step, body) ->
      let acc = fold_stmt fs fe acc init in
      let acc = e acc cond in
      let acc = fold_stmt fs fe acc step in
      fold_stmt fs fe acc body
  | While (c, body) | Repeat (c, body) ->
      fold_stmt fs fe (e acc c) body
  | Forever body -> fold_stmt fs fe acc body
  | Delay (d, k) -> opt (fold_stmt fs fe) (e acc d) k
  | EventCtrl (specs, k) ->
      let acc = List.fold_left (fold_event_spec_exprs fe) acc specs in
      opt (fold_stmt fs fe) acc k
  | Wait (c, k) -> opt (fold_stmt fs fe) (e acc c) k
  | SysTask (_, args) -> List.fold_left e acc args
  | Trigger _ | Null -> acc

let fold_item fs fe acc (item : item) =
  let e = fold_expr fe in
  match item.it with
  | PortDecl _ | EventDecl _ | DefineStub _ -> acc
  | NetDecl (_, range, ds) ->
      let acc =
        match range with
        | None -> acc
        | Some r -> e (e acc r.msb) r.lsb
      in
      List.fold_left
        (fun acc d -> match d.d_init with None -> acc | Some x -> e acc x)
        acc ds
  | ParamDecl (_, pairs) -> List.fold_left (fun acc (_, x) -> e acc x) acc pairs
  | ContAssign assigns ->
      List.fold_left
        (fun acc (lhs, rhs) -> e (fold_lvalue_exprs fe acc lhs) rhs)
        acc assigns
  | Always s | Initial s -> fold_stmt fs fe acc s
  | Instance { params; conns; _ } ->
      let acc = List.fold_left (fun acc (_, x) -> e acc x) acc params in
      List.fold_left
        (fun acc conn ->
          match conn with
          | Named (_, Some x) | Positional x -> e acc x
          | Named (_, None) -> acc)
        acc conns

let fold_module fs fe acc (m : module_decl) =
  List.fold_left (fold_item fs fe) acc m.items

(* --- Collectors -------------------------------------------------------- *)

let stmts_of_module m = List.rev (fold_module (fun acc s -> s :: acc) (fun acc _ -> acc) [] m)
let exprs_of_module m = List.rev (fold_module (fun acc _ -> acc) (fun acc e -> e :: acc) [] m)

let find_stmt m id =
  List.find_opt (fun (s : stmt) -> s.sid = id) (stmts_of_module m)

let find_expr m id =
  List.find_opt (fun (e : expr) -> e.eid = id) (exprs_of_module m)

(* Identifier names appearing anywhere in an expression. *)
let expr_idents e =
  fold_expr
    (fun acc (x : expr) ->
      match x.e with
      | Ident n | Index (n, _) | RangeSel (n, _, _) -> n :: acc
      | _ -> acc)
    [] e
  |> List.rev

(* Assigned nets of an lvalue, left to right, through nested
   concatenations. *)
let lvalue_base lv =
  let rec go acc = function
    | LId n | LIndex (n, _) | LRange (n, _, _) -> n :: acc
    | LConcat lvs -> List.fold_left go acc lvs
  in
  List.rev (go [] lv)

(* Node ids of an expression subtree. *)
let expr_subtree_ids e = fold_expr (fun acc (x : expr) -> x.eid :: acc) [] e

(* Node ids of a whole statement subtree (statements and expressions). *)
let stmt_subtree_ids s =
  fold_stmt
    (fun acc (x : stmt) -> x.sid :: acc)
    (fun acc (x : expr) -> x.eid :: acc)
    [] s

let module_size m =
  fold_module (fun n _ -> n + 1) (fun n _ -> n + 1) 0 m

(* Node count of one statement subtree (statements + expressions). *)
let stmt_size s =
  fold_stmt (fun n _ -> n + 1) (fun n _ -> n + 1) 0 s

(* --- Rewriters --------------------------------------------------------- *)

(* [rewrite_stmts f m] applies [f] to every statement top-down; when [f]
   returns [Some s'], [s'] is used and its children are not visited. The
   repair engine composes first-match-only edits on top of this. *)
let rec rw_stmt f (s : stmt) : stmt =
  match f s with
  | Some s' -> s'
  | None ->
      let k =
        match s.s with
        | Block (lbl, body) -> Block (lbl, List.map (rw_stmt f) body)
        | If (c, t, e) ->
            If (c, Option.map (rw_stmt f) t, Option.map (rw_stmt f) e)
        | CaseStmt (kind, subject, arms, default) ->
            CaseStmt
              ( kind,
                subject,
                List.map
                  (fun arm ->
                    { arm with arm_body = Option.map (rw_stmt f) arm.arm_body })
                  arms,
                Option.map (rw_stmt f) default )
        | For (init, cond, step, body) ->
            For (rw_stmt f init, cond, rw_stmt f step, rw_stmt f body)
        | While (c, body) -> While (c, rw_stmt f body)
        | Repeat (c, body) -> Repeat (c, rw_stmt f body)
        | Forever body -> Forever (rw_stmt f body)
        | Delay (d, k) -> Delay (d, Option.map (rw_stmt f) k)
        | EventCtrl (specs, k) -> EventCtrl (specs, Option.map (rw_stmt f) k)
        | Wait (c, k) -> Wait (c, Option.map (rw_stmt f) k)
        | ( Blocking _ | Nonblocking _ | Trigger _ | SysTask _ | Null ) as d -> d
      in
      { s with s = k }

let rw_item_stmts f item =
  match item.it with
  | Always s -> { item with it = Always (rw_stmt f s) }
  | Initial s -> { item with it = Initial (rw_stmt f s) }
  | _ -> item

let rewrite_stmts f (m : module_decl) : module_decl =
  { m with items = List.map (rw_item_stmts f) m.items }

(* Expression rewriting, top-down, everywhere an expression occurs in
   procedural code and continuous assignments. *)
let rec rw_expr f (e : expr) : expr =
  match f e with
  | Some e' -> e'
  | None ->
      let k =
        match e.e with
        | (Number _ | IntLit _ | Ident _ | String _) as d -> d
        | Index (n, i) -> Index (n, rw_expr f i)
        | RangeSel (n, a, b) -> RangeSel (n, rw_expr f a, rw_expr f b)
        | Unop (op, a) -> Unop (op, rw_expr f a)
        | Binop (op, a, b) -> Binop (op, rw_expr f a, rw_expr f b)
        | Cond (c, t, fl) -> Cond (rw_expr f c, rw_expr f t, rw_expr f fl)
        | Concat es -> Concat (List.map (rw_expr f) es)
        | Repl (n, x) -> Repl (rw_expr f n, rw_expr f x)
        | Call (name, args) -> Call (name, List.map (rw_expr f) args)
      in
      { e with e = k }

let rw_lvalue f lv =
  let rec go = function
    | LId _ as l -> l
    | LIndex (n, e) -> LIndex (n, rw_expr f e)
    | LRange (n, a, b) -> LRange (n, rw_expr f a, rw_expr f b)
    | LConcat lvs -> LConcat (List.map go lvs)
  in
  go lv

let rw_event_spec f = function
  | Posedge e -> Posedge (rw_expr f e)
  | Negedge e -> Negedge (rw_expr f e)
  | Level e -> Level (rw_expr f e)
  | AnyChange -> AnyChange

let rec rw_stmt_exprs f (s : stmt) : stmt =
  let e = rw_expr f in
  let k =
    match s.s with
    | Block (lbl, body) -> Block (lbl, List.map (rw_stmt_exprs f) body)
    | Blocking (lhs, d, rhs) ->
        Blocking (rw_lvalue f lhs, Option.map e d, e rhs)
    | Nonblocking (lhs, d, rhs) ->
        Nonblocking (rw_lvalue f lhs, Option.map e d, e rhs)
    | If (c, t, els) ->
        If (e c, Option.map (rw_stmt_exprs f) t, Option.map (rw_stmt_exprs f) els)
    | CaseStmt (kind, subject, arms, default) ->
        CaseStmt
          ( kind,
            e subject,
            List.map
              (fun arm ->
                {
                  arm with
                  patterns = List.map e arm.patterns;
                  arm_body = Option.map (rw_stmt_exprs f) arm.arm_body;
                })
              arms,
            Option.map (rw_stmt_exprs f) default )
    | For (init, cond, step, body) ->
        For
          ( rw_stmt_exprs f init,
            e cond,
            rw_stmt_exprs f step,
            rw_stmt_exprs f body )
    | While (c, body) -> While (e c, rw_stmt_exprs f body)
    | Repeat (c, body) -> Repeat (e c, rw_stmt_exprs f body)
    | Forever body -> Forever (rw_stmt_exprs f body)
    | Delay (d, k) -> Delay (e d, Option.map (rw_stmt_exprs f) k)
    | EventCtrl (specs, k) ->
        EventCtrl (List.map (rw_event_spec f) specs, Option.map (rw_stmt_exprs f) k)
    | Wait (c, k) -> Wait (e c, Option.map (rw_stmt_exprs f) k)
    | SysTask (name, args) -> SysTask (name, List.map e args)
    | (Trigger _ | Null) as d -> d
  in
  { s with s = k }

let rw_item_exprs f item =
  match item.it with
  | Always s -> { item with it = Always (rw_stmt_exprs f s) }
  | Initial s -> { item with it = Initial (rw_stmt_exprs f s) }
  | ContAssign assigns ->
      {
        item with
        it =
          ContAssign
            (List.map (fun (lhs, rhs) -> (rw_lvalue f lhs, rw_expr f rhs)) assigns);
      }
  | _ -> item

let rewrite_exprs f (m : module_decl) : module_decl =
  { m with items = List.map (rw_item_exprs f) m.items }

(* --- Edit primitives (first match wins) -------------------------------- *)

(* [m] with a first-match edit applied item by item, [None] when it fired
   nowhere. [edit] rewrites one item and sets [fired] when the edit lands
   in it. Every item the edit did not land in is kept physically as it is,
   and items after the one it landed in are not visited: the simulator
   recompiles only the processes whose items are not physically the base
   design's. *)
let edit_items (m : module_decl) fired edit =
  let items =
    List.map
      (fun item ->
        if !fired then item
        else
          let item' = edit item in
          if !fired then item' else item)
      m.items
  in
  if !fired then Some { m with items } else None

(* Replace the first statement whose id is [target] with [replacement]. *)
let replace_stmt m ~target ~replacement =
  let fired = ref false in
  edit_items m fired
    (rw_item_stmts (fun s ->
         if (not !fired) && s.sid = target then (
           fired := true;
           Some replacement)
         else None))

let delete_stmt m ~target =
  replace_stmt m ~target ~replacement:{ sid = target; s = Null }

(* Insert [stmt] after the first occurrence of statement [target]. If the
   target is an element of a begin/end block the insertion extends that
   block; if it is the direct body of a control statement we wrap the two
   statements in a fresh block. *)
let insert_after m ~target ~stmt:(new_stmt : stmt) =
  let fired = ref false in
  let rec widen (s : stmt) : stmt =
    if !fired then s
    else
      match s.s with
      | Block (lbl, body) ->
          let rec go = function
            | [] -> []
            | x :: rest ->
                if (not !fired) && x.sid = target then (
                  fired := true;
                  x :: new_stmt :: rest)
                else widen x :: go rest
          in
          { s with s = Block (lbl, go body) }
      | _ ->
          if s.sid = target then (
            fired := true;
            { sid = s.sid; s = Block (None, [ s; new_stmt ]) })
          else (
            let k =
              match s.s with
              | If (c, t, e) -> If (c, Option.map widen t, Option.map widen e)
              | CaseStmt (kind, subject, arms, default) ->
                  CaseStmt
                    ( kind,
                      subject,
                      List.map
                        (fun arm ->
                          { arm with arm_body = Option.map widen arm.arm_body })
                        arms,
                      Option.map widen default )
              | For (init, cond, step, body) ->
                  For (widen init, cond, widen step, widen body)
              | While (c, body) -> While (c, widen body)
              | Repeat (c, body) -> Repeat (c, widen body)
              | Forever body -> Forever (widen body)
              | Delay (d, k) -> Delay (d, Option.map widen k)
              | EventCtrl (specs, k) -> EventCtrl (specs, Option.map widen k)
              | Wait (c, k) -> Wait (c, Option.map widen k)
              | d -> d
            in
            { s with s = k })
  in
  edit_items m fired (fun item ->
      match item.it with
      | Always s -> { item with it = Always (widen s) }
      | Initial s -> { item with it = Initial (widen s) }
      | _ -> item)

(* Transform the first statement with id [target] via [f]. *)
let transform_stmt m ~target ~f =
  let fired = ref false in
  edit_items m fired
    (rw_item_stmts (fun s ->
         if (not !fired) && s.sid = target then (
           match f s with
           | Some s' ->
               fired := true;
               Some s'
           | None -> None)
         else None))

(* Transform the first expression with id [target] via [f]. *)
let transform_expr m ~target ~f =
  let fired = ref false in
  edit_items m fired
    (rw_item_exprs (fun e ->
         if (not !fired) && e.eid = target then (
           match f e with
           | Some e' ->
               fired := true;
               Some e'
           | None -> None)
         else None))

(* --- Classification ---------------------------------------------------- *)

(* Statement "type" used by fix localization: a replacement must come from
   the same class (paper Sec. 3.6). *)
type stmt_class =
  | C_assign
  | C_if
  | C_case
  | C_loop
  | C_block
  | C_timing
  | C_other

let classify_stmt (s : stmt) =
  match s.s with
  | Blocking _ | Nonblocking _ -> C_assign
  | If _ -> C_if
  | CaseStmt _ -> C_case
  | For _ | While _ | Repeat _ | Forever _ -> C_loop
  | Block _ -> C_block
  | Delay _ | EventCtrl _ | Wait _ -> C_timing
  | Trigger _ | SysTask _ | Null -> C_other

(* --- Structural hashing ------------------------------------------------- *)

(* A 128-bit structural digest of a module, ignoring node ids: the repair
   engine memoizes candidate evaluations on the materialized program, and
   two patches that produce the same program must share one cache entry no
   matter which ids their fragments carry. Hashing the AST directly avoids
   pretty-printing the whole module per lookup (the old memo key). The
   serialization fed to the hash is injective — constructor tags plus
   length-prefixed lists and strings — so distinct programs collide only if
   two independent 64-bit FNV-style lanes collide at once. *)

(* The two 64-bit lanes, at byte offsets 0 and 8. Bytes rather than two
   mutable [int64] fields: reading and writing a lane through the bytes
   primitives stays unboxed, where a field update allocates a box per
   word fed. *)
type hash_state = Bytes.t

(* FNV offset bases for the two lanes. *)
let hash_start () : hash_state =
  let st = Bytes.create 16 in
  Bytes.set_int64_ne st 0 0xcbf29ce484222325L;
  Bytes.set_int64_ne st 8 0x2545f4914f6cdd1dL;
  st

let hash_hex (st : hash_state) =
  Printf.sprintf "%016Lx%016Lx" (Bytes.get_int64_ne st 0) (Bytes.get_int64_ne st 8)

(* Word-at-a-time FNV-1a variants; the lanes use different odd multipliers
   and offsets so they do not collide in tandem. *)
let feed st n =
  let w = Int64.of_int n in
  Bytes.set_int64_ne st 0
    (Int64.mul (Int64.logxor (Bytes.get_int64_ne st 0) w) 0x100000001b3L);
  Bytes.set_int64_ne st 8
    (Int64.mul (Int64.logxor (Bytes.get_int64_ne st 8) w) 0x9E3779B97F4A7C15L)

let feed_string st s =
  feed st (String.length s);
  for i = 0 to String.length s - 1 do
    feed st (Char.code (String.unsafe_get s i))
  done

let feed_opt f st = function
  | None -> feed st 0
  | Some x ->
      feed st 1;
      f st x

let feed_list f st l =
  feed st (List.length l);
  List.iter (f st) l

let feed_bool st b = feed st (if b then 1 else 0)

let feed_vec st v =
  feed st (Logic4.Vec.width v);
  for i = 0 to Logic4.Vec.width v - 1 do
    feed st
      (match Logic4.Vec.get v i with
      | Logic4.Bit.V0 -> 0
      | Logic4.Bit.V1 -> 1
      | Logic4.Bit.X -> 2
      | Logic4.Bit.Z -> 3)
  done

let unop_tag = function
  | Uplus -> 0
  | Uminus -> 1
  | Unot -> 2
  | Ubnot -> 3
  | Uand -> 4
  | Uor -> 5
  | Uxor -> 6
  | Unand -> 7
  | Unor -> 8
  | Uxnor -> 9

let binop_tag = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Mod -> 4
  | Land -> 5
  | Lor -> 6
  | Band -> 7
  | Bor -> 8
  | Bxor -> 9
  | Bxnor -> 10
  | Eq -> 11
  | Neq -> 12
  | Ceq -> 13
  | Cneq -> 14
  | Lt -> 15
  | Le -> 16
  | Gt -> 17
  | Ge -> 18
  | Shl -> 19
  | Shr -> 20

let rec feed_expr st (ex : expr) =
  match ex.e with
  | Number v ->
      feed st 1;
      feed_vec st v
  | IntLit n ->
      feed st 2;
      feed st n
  | Ident s ->
      feed st 3;
      feed_string st s
  | Index (s, i) ->
      feed st 4;
      feed_string st s;
      feed_expr st i
  | RangeSel (s, a, b) ->
      feed st 5;
      feed_string st s;
      feed_expr st a;
      feed_expr st b
  | Unop (op, a) ->
      feed st 6;
      feed st (unop_tag op);
      feed_expr st a
  | Binop (op, a, b) ->
      feed st 7;
      feed st (binop_tag op);
      feed_expr st a;
      feed_expr st b
  | Cond (c, t, f) ->
      feed st 8;
      feed_expr st c;
      feed_expr st t;
      feed_expr st f
  | Concat es ->
      feed st 9;
      feed_list feed_expr st es
  | Repl (n, x) ->
      feed st 10;
      feed_expr st n;
      feed_expr st x
  | Call (f, args) ->
      feed st 11;
      feed_string st f;
      feed_list feed_expr st args
  | String s ->
      feed st 12;
      feed_string st s

let rec feed_lvalue st = function
  | LId s ->
      feed st 1;
      feed_string st s
  | LIndex (s, e) ->
      feed st 2;
      feed_string st s;
      feed_expr st e
  | LRange (s, a, b) ->
      feed st 3;
      feed_string st s;
      feed_expr st a;
      feed_expr st b
  | LConcat lvs ->
      feed st 4;
      feed_list feed_lvalue st lvs

let feed_event_spec st = function
  | Posedge e ->
      feed st 1;
      feed_expr st e
  | Negedge e ->
      feed st 2;
      feed_expr st e
  | Level e ->
      feed st 3;
      feed_expr st e
  | AnyChange -> feed st 4

let rec feed_stmt st (s : stmt) =
  match s.s with
  | Block (label, body) ->
      feed st 1;
      feed_opt feed_string st label;
      feed_list feed_stmt st body
  | Blocking (lhs, d, rhs) ->
      feed st 2;
      feed_lvalue st lhs;
      feed_opt feed_expr st d;
      feed_expr st rhs
  | Nonblocking (lhs, d, rhs) ->
      feed st 3;
      feed_lvalue st lhs;
      feed_opt feed_expr st d;
      feed_expr st rhs
  | If (c, t, e) ->
      feed st 4;
      feed_expr st c;
      feed_opt feed_stmt st t;
      feed_opt feed_stmt st e
  | CaseStmt (kind, subject, arms, default) ->
      feed st 5;
      feed st (match kind with Case -> 0 | Casez -> 1 | Casex -> 2);
      feed_expr st subject;
      feed_list
        (fun st arm ->
          feed_list feed_expr st arm.patterns;
          feed_opt feed_stmt st arm.arm_body)
        st arms;
      feed_opt feed_stmt st default
  | For (init, cond, step, body) ->
      feed st 6;
      feed_stmt st init;
      feed_expr st cond;
      feed_stmt st step;
      feed_stmt st body
  | While (c, body) ->
      feed st 7;
      feed_expr st c;
      feed_stmt st body
  | Repeat (c, body) ->
      feed st 8;
      feed_expr st c;
      feed_stmt st body
  | Forever body ->
      feed st 9;
      feed_stmt st body
  | Delay (d, k) ->
      feed st 10;
      feed_expr st d;
      feed_opt feed_stmt st k
  | EventCtrl (specs, k) ->
      feed st 11;
      feed_list feed_event_spec st specs;
      feed_opt feed_stmt st k
  | Wait (c, k) ->
      feed st 12;
      feed_expr st c;
      feed_opt feed_stmt st k
  | Trigger name ->
      feed st 13;
      feed_string st name
  | SysTask (task, args) ->
      feed st 14;
      feed_string st task;
      feed_list feed_expr st args
  | Null -> feed st 15

let feed_range st (r : range) =
  feed_expr st r.msb;
  feed_expr st r.lsb

let feed_item st (item : item) =
  match item.it with
  | PortDecl (dir, kind, range, names) ->
      feed st 1;
      feed st (match dir with Input -> 0 | Output -> 1 | Inout -> 2);
      feed_opt (fun st k -> feed st (match k with Wire -> 0 | Reg -> 1 | Integer -> 2)) st kind;
      feed_opt feed_range st range;
      feed_list feed_string st names
  | NetDecl (kind, range, ds) ->
      feed st 2;
      feed st (match kind with Wire -> 0 | Reg -> 1 | Integer -> 2);
      feed_opt feed_range st range;
      feed_list
        (fun st d ->
          feed_string st d.d_name;
          feed_opt feed_range st d.d_array;
          feed_opt feed_expr st d.d_init)
        st ds
  | ParamDecl (local, pairs) ->
      feed st 3;
      feed_bool st local;
      feed_list
        (fun st (name, e) ->
          feed_string st name;
          feed_expr st e)
        st pairs
  | ContAssign assigns ->
      feed st 4;
      feed_list
        (fun st (lhs, rhs) ->
          feed_lvalue st lhs;
          feed_expr st rhs)
        st assigns
  | Always s ->
      feed st 5;
      feed_stmt st s
  | Initial s ->
      feed st 6;
      feed_stmt st s
  | Instance { mod_name; inst_name; params; conns } ->
      feed st 7;
      feed_string st mod_name;
      feed_string st inst_name;
      feed_list
        (fun st (name, e) ->
          feed_opt feed_string st name;
          feed_expr st e)
        st params;
      feed_list
        (fun st conn ->
          match conn with
          | Named (port, e) ->
              feed st 1;
              feed_string st port;
              feed_opt feed_expr st e
          | Positional e ->
              feed st 2;
              feed_expr st e)
        st conns
  | EventDecl names ->
      feed st 8;
      feed_list feed_string st names
  | DefineStub s ->
      feed st 9;
      feed_string st s

let structural_hash (m : module_decl) : string =
  let st = hash_start () in
  feed_string st m.mod_id;
  feed_list feed_string st m.mod_ports;
  feed_list feed_item st m.items;
  hash_hex st
