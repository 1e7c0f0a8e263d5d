(* The module-level dependence graph: one node per value-computing item,
   built in one walk over the module's items. Analysis, Slice, Race and
   Lint read it; see deps.mli for the node kinds and DESIGN.md
   ("Dependence graph") for which consumer reads which field. *)

open Ast
module Names = Set.Make (String)

type style = Clocked | Combinational | Mixed

type sens = {
  style : style;
  star : bool;
  listed : Names.t;
  edges : (string * bool) list;
}

type binding = { port : string; dir : direction option; conn : expr option }

type kind =
  | Assign
  | Always of sens
  | Timed
  | Initial
  | Instance of {
      inst : string;
      child : module_decl option;
      bindings : binding list;
    }
  | Decl_init

type assign = { a_id : id; a_supports : Names.t; a_targets : string list }

type node = {
  id : id;
  item : item;
  kind : kind;
  reads : Names.t;
  writes : Names.t;
  blk : Names.t;
  nba : Names.t;
  assigns : assign list;
}

type index = { owner : (int, id) Hashtbl.t; all_reads : Names.t }

type t = {
  nodes : node list;
  params : Names.t;
  writers : (string, node list) Hashtbl.t Lazy.t;
  index : index Lazy.t;
}

(* --- Reads and writes ------------------------------------------------------ *)

let add_read acc (x : expr) =
  match x.e with
  | Ident n | Index (n, _) | RangeSel (n, _, _) -> Names.add n acc
  | _ -> acc

let expr_reads acc e = Ast_utils.fold_expr add_read acc e

let expr_base (e : expr) =
  match e.e with
  | Ident n | Index (n, _) | RangeSel (n, _, _) -> Some n
  | _ -> None

let add_targets acc lv =
  List.fold_left (fun acc n -> Names.add n acc) acc (Ast_utils.lvalue_base lv)

let item_reads (item : item) =
  Ast_utils.fold_item (fun acc _ -> acc) add_read Names.empty item

(* Reads, blocking writes and non-blocking writes of a statement subtree,
   in one fold. *)
let stmt_rw (s : stmt) =
  let blk = ref Names.empty and nba = ref Names.empty in
  let reads =
    Ast_utils.fold_stmt
      (fun acc (sub : stmt) ->
        (match sub.s with
        | Blocking (lhs, _, _) -> blk := add_targets !blk lhs
        | Nonblocking (lhs, _, _) -> nba := add_targets !nba lhs
        | _ -> ());
        acc)
      add_read Names.empty s
  in
  (reads, !blk, !nba)

let stmt_writes (s : stmt) =
  let _, blk, nba = stmt_rw s in
  Names.union blk nba

(* --- Sensitivity --------------------------------------------------------- *)

let style_of_specs specs =
  let edge =
    List.exists (function Posedge _ | Negedge _ -> true | _ -> false) specs
  in
  let level =
    List.exists (function Level _ | AnyChange -> true | _ -> false) specs
  in
  match (edge, level) with
  | true, true -> Mixed
  | true, false -> Clocked
  | _ -> Combinational

let sens_of_specs specs =
  let edge (listed, edges) pos e =
    let names = Ast_utils.expr_idents e in
    ( List.fold_left (fun acc n -> Names.add n acc) listed names,
      List.rev_append (List.map (fun n -> (n, pos)) names) edges )
  in
  let listed, edges =
    List.fold_left
      (fun ((listed, edges) as acc) spec ->
        match spec with
        | Posedge e -> edge acc true e
        | Negedge e -> edge acc false e
        | Level e -> (expr_reads listed e, edges)
        | AnyChange -> acc)
      (Names.empty, []) specs
  in
  {
    style = style_of_specs specs;
    star = List.mem AnyChange specs;
    listed;
    edges = List.rev edges;
  }

(* An assignment depends on its RHS, its LHS index expressions and the
   enclosing control conditions [ctrl]. *)
let assignment id ctrl lhs rhs =
  {
    a_id = id;
    a_supports = Ast_utils.fold_lvalue_exprs add_read (expr_reads ctrl rhs) lhs;
    a_targets = Ast_utils.lvalue_base lhs;
  }

(* Zero-delay assignments of a combinational body. Timing controls break
   the zero-delay path, so their subtrees are not walked; neither are
   delayed assignments. *)
let comb_assignments (body : stmt) : assign list =
  let out = ref [] in
  let rec walk ctrl (s : stmt) =
    match s.s with
    | Block (_, body) -> List.iter (walk ctrl) body
    | Blocking (lhs, d, rhs) | Nonblocking (lhs, d, rhs) ->
        if d = None then out := assignment s.sid ctrl lhs rhs :: !out
    | If (c, t, e) ->
        let ctrl = expr_reads ctrl c in
        Option.iter (walk ctrl) t;
        Option.iter (walk ctrl) e
    | CaseStmt (_, subject, arms, default) ->
        let ctrl = expr_reads ctrl subject in
        List.iter
          (fun arm ->
            let ctrl = List.fold_left expr_reads ctrl arm.patterns in
            Option.iter (walk ctrl) arm.arm_body)
          arms;
        Option.iter (walk ctrl) default
    | For (init, cond, step, body) ->
        let ctrl = expr_reads ctrl cond in
        walk ctrl init;
        walk ctrl step;
        walk ctrl body
    | While (c, body) | Repeat (c, body) -> walk (expr_reads ctrl c) body
    | Forever body -> walk ctrl body
    | Delay _ | EventCtrl _ | Wait _ | Trigger _ | SysTask _ | Null -> ()
  in
  walk Names.empty body;
  List.rev !out

(* --- Port bindings --------------------------------------------------------- *)

(* Last declaration wins, as in the elaborator. *)
let port_directions (m : module_decl) : (string, direction) Hashtbl.t =
  let t = Hashtbl.create 16 in
  List.iter
    (fun (item : item) ->
      match item.it with
      | PortDecl (d, _, _, names) -> List.iter (fun n -> Hashtbl.replace t n d) names
      | _ -> ())
    m.items;
  t

let resolve_conns (child : module_decl) (conns : port_conn list) :
    binding list * expr list =
  let dirs = port_directions child in
  let bind port conn = { port; dir = Hashtbl.find_opt dirs port; conn } in
  let bound, extra =
    List.fold_left
      (fun (bound, extra) (i, conn) ->
        match conn with
        | Named (p, e) -> (bind p e :: bound, extra)
        | Positional e -> (
            match List.nth_opt child.mod_ports i with
            | Some p -> (bind p (Some e) :: bound, extra)
            | None -> (bound, e :: extra)))
      ([], [])
      (List.mapi (fun i c -> (i, c)) conns)
  in
  (List.rev bound, List.rev extra)

(* Reads and writes of an instance: with the child known, input
   connections are read and output connections write their base net
   (index expressions inside them are reads); inout or undeclared ports,
   and every connection of an opaque instance, count both ways. *)
let instance_rw ~params ~conns ~child ~bindings =
  let reads = List.fold_left (fun acc (_, e) -> expr_reads acc e) Names.empty params in
  let both (reads, writes) e =
    ( expr_reads reads e,
      match expr_base e with Some n -> Names.add n writes | None -> writes )
  in
  match child with
  | Some _ ->
      List.fold_left
        (fun (reads, writes) b ->
          match (b.conn, b.dir) with
          | None, _ -> (reads, writes)
          | Some e, Some Input -> (expr_reads reads e, writes)
          | Some e, Some Output -> (
              match expr_base e with
              | Some n ->
                  let sub = Names.remove n (expr_reads Names.empty e) in
                  (Names.union reads sub, Names.add n writes)
              | None -> (expr_reads reads e, writes))
          | Some e, (Some Inout | None) -> both (reads, writes) e)
        (reads, Names.empty) bindings
  | None ->
      List.fold_left
        (fun acc conn ->
          match conn with
          | Named (_, None) -> acc
          | Named (_, Some e) | Positional e -> both acc e)
        (reads, Names.empty) conns

(* --- Build ------------------------------------------------------------------ *)

let node item kind ?(assigns = []) ?(blk = Names.empty) ?(nba = Names.empty)
    reads writes =
  { id = item.iid; item; kind; reads; writes; blk; nba; assigns }

let process item kind ?(assigns = []) s =
  let reads, blk, nba = stmt_rw s in
  node item kind ~assigns ~blk ~nba reads (Names.union blk nba)

let node_of_item ~find_child (item : item) : node option =
  match item.it with
  | ContAssign pairs ->
      let assigns =
        List.map (fun (lhs, rhs) -> assignment item.iid Names.empty lhs rhs) pairs
      in
      let union f =
        List.fold_left (fun acc a -> Names.union acc (f a)) Names.empty assigns
      in
      Some
        (node item Assign ~assigns
           (union (fun a -> a.a_supports))
           (union (fun a -> Names.of_list a.a_targets)))
  | Always ({ s = EventCtrl (specs, body); _ } as s) ->
      let sens = sens_of_specs specs in
      let body = Option.value body ~default:{ sid = s.sid; s = Null } in
      let assigns =
        match sens.style with
        | Clocked -> []
        | Combinational | Mixed ->
            List.map
              (fun a ->
                if sens.star then a
                else { a with a_supports = Names.inter a.a_supports sens.listed })
              (comb_assignments body)
      in
      Some (process item (Always sens) ~assigns body)
  | Always s -> Some (process item Timed s)
  | Initial s -> Some (process item Initial s)
  | Instance { mod_name; inst_name; params; conns } ->
      let child = find_child mod_name in
      let bindings =
        match child with Some c -> fst (resolve_conns c conns) | None -> []
      in
      let reads, writes = instance_rw ~params ~conns ~child ~bindings in
      Some (node item (Instance { inst = inst_name; child; bindings }) reads writes)
  | NetDecl (_, _, ds) when List.exists (fun d -> d.d_init <> None) ds ->
      let reads, writes =
        List.fold_left
          (fun (r, w) d ->
            match d.d_init with
            | None -> (r, w)
            | Some e -> (expr_reads r e, Names.add d.d_name w))
          (Names.empty, Names.empty) ds
      in
      Some (node item Decl_init reads writes)
  | PortDecl _ | NetDecl _ | ParamDecl _ | EventDecl _ | DefineStub _ -> None

(* Owning-item index and module-wide reads: every statement and
   expression id inside an item maps back to the item (a later item wins
   an id two items share), and every identifier read anywhere is
   collected. *)
let build_index (m : module_decl) : index =
  let owner = Hashtbl.create 64 in
  let all_reads =
    List.fold_left
      (fun acc (item : item) ->
        Hashtbl.replace owner item.iid item.iid;
        Ast_utils.fold_item
          (fun acc (s : stmt) ->
            Hashtbl.replace owner s.sid item.iid;
            acc)
          (fun acc (e : expr) ->
            Hashtbl.replace owner e.eid item.iid;
            add_read acc e)
          acc item)
      Names.empty m.items
  in
  { owner; all_reads }

let build_writers nodes =
  let writers = Hashtbl.create 32 in
  List.iter
    (fun n ->
      Names.iter
        (fun w ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt writers w) in
          Hashtbl.replace writers w (n :: prev))
        n.writes)
    nodes;
  Hashtbl.filter_map_inplace (fun _ ns -> Some (List.rev ns)) writers;
  writers

let build ?design (m : module_decl) : t =
  let find_child name =
    match design with
    | None -> None
    | Some d -> List.find_opt (fun (md : module_decl) -> md.mod_id = name) d
  in
  let nodes, params =
    List.fold_left
      (fun (nodes, params) (item : item) ->
        match (item.it, node_of_item ~find_child item) with
        | ParamDecl (_, pairs), _ ->
            (nodes, List.fold_left (fun acc (n, _) -> Names.add n acc) params pairs)
        | _, Some n -> (n :: nodes, params)
        | _, None -> (nodes, params))
      ([], Names.empty) m.items
  in
  let nodes = List.rev nodes in
  {
    nodes;
    params;
    writers = lazy (build_writers nodes);
    index = lazy (build_index m);
  }

(* --- Queries ---------------------------------------------------------------- *)

let nodes g = g.nodes
let params g = g.params
let writers g n = Option.value ~default:[] (Hashtbl.find_opt (Lazy.force g.writers) n)
let owner g id = Hashtbl.find_opt (Lazy.force g.index).owner id
let all_reads g = (Lazy.force g.index).all_reads

let fan_in n =
  match n.kind with Always sens -> Names.union n.reads sens.listed | _ -> n.reads

let is_process n =
  match n.kind with Always _ | Timed | Initial -> true | _ -> false

let process_stmt n =
  match n.item.it with Always s | Initial s -> Some s | _ -> None
