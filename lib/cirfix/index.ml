(* The proposal index of one module: what fault localization (Algorithm 2),
   the fix-localization pools, the repair templates and the mutation
   operators read from it, computed once per item instead of by a walk of
   the whole module on every call.

   An index derived from a base ([of_module ~base]) takes the base's facts
   for every item that is physically ([==]) the base's item at the same
   position, and indexes only the others. The edit primitives keep every
   item an edit did not land in physically as it was
   ([Verilog.Ast_utils.edit_items]), so a parent reached from the seed by a
   patch re-indexes only the items its edits touched.

   An item is indexed by one walk in [Verilog.Ast_utils.fold_stmt]'s
   order: each statement's facts are built bottom-up from its children's
   (node count, identifiers), and its subtree's node ids are a contiguous
   run of the item's preorder node array. The module-level pools are
   built on first use: most parents are drawn from a few times, each draw
   reading one pool. *)

open Verilog.Ast
module NameSet = Set.Make (String)

(* Fragments above this size are never drawn as edit payloads: repeated
   insertion of large subtrees otherwise grows candidates exponentially
   across generations. *)
let max_fragment_size = 64

(* Statements eligible as insertion sources: assignments, conditionals,
   case statements, loops and event triggers drawn from always/initial
   bodies (IEEE Annex A.6.4 statement types). Blocks and bare timing
   controls are excluded: inserting them rarely parses as intended. *)
let insertable (s : stmt) =
  match s.s with
  | Blocking _ | Nonblocking _ | If _ | CaseStmt _ | For _ | While _
  | Repeat _ | Trigger _ ->
      true
  | Block _ | Forever _ | Delay _ | EventCtrl _ | Wait _ | SysTask _ | Null ->
      false

let lvalue_names lv = NameSet.of_list (Verilog.Ast_utils.lvalue_base lv)

(* The name an expression node mentions, if any. *)
let expr_name (e : expr) =
  match e.e with Ident n | Index (n, _) | RangeSel (n, _, _) -> Some n | _ -> None

(* Identifiers appearing anywhere in a statement subtree, including names
   written by assignments (lvalue bases are not expressions, so the generic
   expression fold alone would miss them). *)
let stmt_idents (s : stmt) : NameSet.t =
  Verilog.Ast_utils.fold_stmt
    (fun acc (sub : stmt) ->
      match sub.s with
      | Blocking (lhs, _, _) | Nonblocking (lhs, _, _) ->
          NameSet.union acc (lvalue_names lhs)
      | _ -> acc)
    (fun acc (e : expr) ->
      match expr_name e with Some n -> NameSet.add n acc | None -> acc)
    NameSet.empty s

type stmt_facts = {
  stmt : stmt;
  cls : Verilog.Ast_utils.stmt_class;
  small : bool;
  insertable : bool;
  conditional : bool;
  writes : NameSet.t option;
  idents : NameSet.t;
  tree : id array;
  lo : int;
  hi : int;
  desc : int;
}

type cont_facts = { c_writes : NameSet.t; c_ids : id list; c_names : NameSet.t }

type site = Conditional | Event_control | Blocking_assign | Nonblocking_assign | Value

let site_rank = function
  | Conditional -> 0
  | Event_control -> 1
  | Blocking_assign -> 2
  | Nonblocking_assign -> 3
  | Value -> 4

let n_sites = 5

let class_rank : Verilog.Ast_utils.stmt_class -> int = function
  | C_assign -> 0
  | C_if -> 1
  | C_case -> 2
  | C_loop -> 3
  | C_block -> 4
  | C_timing -> 5
  | C_other -> 6

let n_classes = 7

type item_facts = {
  item : item;
  i_stmts : stmt_facts array;
  i_conts : cont_facts array;
  i_sites : id array array;
}

type t = {
  decl : module_decl;
  items : item_facts array;
  stmts : stmt_facts array;
  conts : cont_facts array;
  insertion : stmt array Lazy.t;
  unrestricted : stmt array Lazy.t;
  by_class : stmt array array Lazy.t;
  sites : id array array Lazy.t;
  names : string array Lazy.t;
}

let stmt_site (s : stmt) =
  match s.s with
  | If _ | While _ -> Some Conditional
  | EventCtrl _ -> Some Event_control
  | Blocking _ -> Some Blocking_assign
  | Nonblocking _ -> Some Nonblocking_assign
  | _ -> None

(* A placeholder for array slots not yet filled. *)
let no_facts =
  {
    stmt = { sid = -1; s = Null };
    cls = C_other;
    small = true;
    insertable = false;
    conditional = false;
    writes = None;
    idents = NameSet.empty;
    tree = [||];
    lo = 0;
    hi = 0;
    desc = 0;
  }

let item_facts (item : item) : item_facts =
  let sites = Array.make n_sites [] in
  let add_site site id = sites.(site_rank site) <- id :: sites.(site_rank site) in
  let value_site (e : expr) =
    match e.e with Ident _ | Number _ | IntLit _ -> add_site Value e.eid | _ -> ()
  in
  (* [tree]: the preorder node ids of the item's statement, if any;
     [facts]: the statements' facts with their preorder slots. *)
  let tree =
    match item.it with
    | Always s | Initial s -> Array.make (Verilog.Ast_utils.stmt_size s) 0
    | _ -> [||]
  in
  let n_nodes = ref 0 in
  let facts = ref (Array.make 16 no_facts) and n_stmts = ref 0 in
  let node id =
    tree.(!n_nodes) <- id;
    incr n_nodes
  in
  let visit_expr names (e : expr) =
    node e.eid;
    value_site e;
    match expr_name e with Some n -> NameSet.add n names | None -> names
  in
  let expr names e = Verilog.Ast_utils.fold_expr visit_expr names e in
  (* Visits [s] in [fold_stmt]'s order; returns [stmt_idents s]. *)
  let rec visit (s : stmt) : NameSet.t =
    let slot = !n_stmts in
    incr n_stmts;
    if slot = Array.length !facts then begin
      let a = Array.make (2 * slot) no_facts in
      Array.blit !facts 0 a 0 slot;
      facts := a
    end;
    let lo = !n_nodes in
    node s.sid;
    Option.iter (fun site -> add_site site s.sid) (stmt_site s);
    let opt names = function None -> names | Some c -> NameSet.union names (visit c) in
    let writes, names =
      match s.s with
      | Blocking (lhs, d, rhs) | Nonblocking (lhs, d, rhs) ->
          let names = Verilog.Ast_utils.fold_lvalue_exprs visit_expr NameSet.empty lhs in
          let names = match d with None -> names | Some d -> expr names d in
          let w = lvalue_names lhs in
          (Some w, NameSet.union w (expr names rhs))
      | Block (_, body) ->
          (None, List.fold_left (fun names c -> NameSet.union names (visit c)) NameSet.empty body)
      | If (c, t, e) ->
          let names = expr NameSet.empty c in
          let names = opt names t in
          (None, opt names e)
      | CaseStmt (_, subject, arms, default) ->
          let names = expr NameSet.empty subject in
          let names =
            List.fold_left
              (fun names arm -> opt (List.fold_left expr names arm.patterns) arm.arm_body)
              names arms
          in
          (None, opt names default)
      | For (init, cond, step, body) ->
          let names = visit init in
          let names = expr names cond in
          let names = NameSet.union names (visit step) in
          (None, NameSet.union names (visit body))
      | While (c, body) | Repeat (c, body) ->
          let names = expr NameSet.empty c in
          (None, NameSet.union names (visit body))
      | Forever body -> (None, visit body)
      | Delay (d, k) | Wait (d, k) -> (None, opt (expr NameSet.empty d) k)
      | EventCtrl (specs, k) ->
          let names =
            List.fold_left
              (Verilog.Ast_utils.fold_event_spec_exprs visit_expr)
              NameSet.empty specs
          in
          (None, opt names k)
      | SysTask (_, args) -> (None, List.fold_left expr NameSet.empty args)
      | Trigger _ | Null -> (None, NameSet.empty)
    in
    let hi = !n_nodes in
    !facts.(slot) <-
      {
        stmt = s;
        cls = Verilog.Ast_utils.classify_stmt s;
        small = hi - lo <= max_fragment_size;
        insertable = insertable s;
        conditional =
          (match s.s with If _ | CaseStmt _ | While _ | For _ -> true | _ -> false);
        writes;
        idents = names;
        tree;
        lo;
        hi;
        desc = !n_stmts - 1 - slot;
      };
    names
  in
  let conts =
    match item.it with
    | Always s | Initial s ->
        ignore (visit s);
        []
    | ContAssign assigns ->
        Verilog.Ast_utils.fold_item (fun () _ -> ()) (fun () e -> value_site e) () item;
        List.map
          (fun (lhs, rhs) ->
            {
              c_writes = lvalue_names lhs;
              c_ids = item.iid :: Verilog.Ast_utils.expr_subtree_ids rhs;
              c_names = NameSet.of_list (Verilog.Ast_utils.expr_idents rhs);
            })
          assigns
    | _ ->
        Verilog.Ast_utils.fold_item (fun () _ -> ()) (fun () e -> value_site e) () item;
        []
  in
  {
    item;
    i_stmts = Array.sub !facts 0 !n_stmts;
    i_conts = Array.of_list conts;
    i_sites = Array.map (fun l -> Array.of_list (List.rev l)) sites;
  }

let m_built = Obs.Metrics.counter "gp.index_items_built"
let m_shared = Obs.Metrics.counter "gp.index_items_shared"

let filter_map (f : 'a -> 'b option) (a : 'a array) : 'b array =
  Array.of_list
    (Array.fold_right (fun x acc -> match f x with Some y -> y :: acc | None -> acc) a [])

let concat_items (f : item_facts -> 'a array) (items : item_facts array) : 'a array =
  Array.concat (Array.to_list (Array.map f items))

let of_module ?(base : t option) (m : module_decl) : t =
  let shared = ref 0 in
  let reuse i (item : item) =
    match base with
    | Some b when i < Array.length b.items && b.items.(i).item == item ->
        incr shared;
        b.items.(i)
    | _ -> item_facts item
  in
  let items = Array.of_list (List.mapi reuse m.items) in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.add m_shared !shared;
    Obs.Metrics.add m_built (Array.length items - !shared)
  end;
  let stmts = concat_items (fun f -> f.i_stmts) items in
  let pick p = lazy (filter_map (fun f -> if p f then Some f.stmt else None) stmts) in
  {
    decl = m;
    items;
    stmts;
    conts = concat_items (fun f -> f.i_conts) items;
    insertion = pick (fun f -> f.insertable && f.small);
    unrestricted = pick (fun f -> f.small);
    by_class =
      lazy
        (let by_class = Array.make n_classes [] in
         for i = Array.length stmts - 1 downto 0 do
           let f = stmts.(i) in
           if f.small then
             let r = class_rank f.cls in
             by_class.(r) <- f.stmt :: by_class.(r)
         done;
         Array.map Array.of_list by_class);
    sites = lazy (Array.init n_sites (fun r -> concat_items (fun f -> f.i_sites.(r)) items));
    (* Every statement of an item lies in its root statement (the first),
       so the roots' identifiers are all the module's statements'. *)
    names =
      lazy
        (Array.fold_left
           (fun acc f ->
             if Array.length f.i_stmts = 0 then acc
             else NameSet.union acc f.i_stmts.(0).idents)
           NameSet.empty items
        |> NameSet.elements |> Array.of_list);
  }

let insertion (t : t) = Lazy.force t.insertion
let unrestricted (t : t) = Lazy.force t.unrestricted

let same_class (t : t) (s : stmt) : stmt array =
  (Lazy.force t.by_class).(class_rank (Verilog.Ast_utils.classify_stmt s))

let sites (t : t) (site : site) : id array = (Lazy.force t.sites).(site_rank site)
let names (t : t) : string array = Lazy.force t.names
