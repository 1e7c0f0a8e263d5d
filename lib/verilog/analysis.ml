(* Semantic static analysis over the module's dependence graph ({!Deps}):
   combinational-loop detection, x-propagation seeding, width/truncation
   checking, and constant-condition detection. The repair engine runs a
   configurable subset of these on every materialized mutant before
   simulation: a statically-doomed candidate (e.g. a zero-delay feedback
   loop) is rejected in microseconds instead of burning a full simulation
   budget. *)

open Ast
module Names = Deps.Names
module SMap = Map.Make (String)

(* --- Expression widths -------------------------------------------------- *)

(* Widths read the module's one declaration environment
   ({!Dataflow.denv}), whose parameters and range bounds go through the
   elaborator's 4-valued evaluation: a sized parameter that wraps gives
   the width the simulator records. *)

(* Self-determined width; [None] means context-determined (unsized
   literals, parameters) or unknown — such operands adapt to the other
   side and are never reported as truncating. [Dataflow.expr_width]
   answers a different question over the same environment (the width
   the simulator's evaluator returns, 32 for an unsized literal), so the
   two stay apart. *)
let rec width_of (d : Dataflow.denv) (e : expr) : int option =
  let join a b =
    match (a, b) with
    | Some x, Some y -> Some (max x y)
    | (Some _ as w), None | None, (Some _ as w) -> w
    | None, None -> None
  in
  match e.e with
  | Number v -> Some (Logic4.Vec.width v)
  | IntLit _ | String _ -> None
  | Ident n ->
      if Dataflow.param_value d n <> None then None else Dataflow.net_width d n
  | Index (n, _) ->
      if Dataflow.is_array d n then Dataflow.net_width d n else Some 1
  | RangeSel (_, a, b) -> Dataflow.span_width d a b
  | Unop ((Uplus | Uminus | Ubnot), a) -> width_of d a
  | Unop (_, _) -> Some 1 (* reductions and ! *)
  | Binop ((Add | Sub | Mul | Div | Mod | Band | Bor | Bxor | Bxnor), a, b) ->
      join (width_of d a) (width_of d b)
  | Binop ((Shl | Shr), a, _) -> width_of d a
  | Binop (_, _, _) -> Some 1 (* relational, logical, case equality *)
  | Cond (_, t, f) -> join (width_of d t) (width_of d f)
  | Concat es ->
      List.fold_left
        (fun acc x ->
          match (acc, width_of d x) with
          | Some a, Some w -> Some (a + w)
          | _ -> None)
        (Some 0) es
  | Repl (n, x) -> (
      match (Dataflow.param_int d n, width_of d x) with
      | Some k, Some w when k > 0 -> Some (k * w)
      | _ -> None)
  | Call _ -> None

let rec lvalue_width (d : Dataflow.denv) (lv : lvalue) : int option =
  match lv with
  | LId n -> Dataflow.net_width d n
  | LIndex (n, _) ->
      if Dataflow.is_array d n then Dataflow.net_width d n else Some 1
  | LRange (_, a, b) -> Dataflow.span_width d a b
  | LConcat lvs ->
      List.fold_left
        (fun acc l ->
          match (acc, lvalue_width d l) with
          | Some a, Some w -> Some (a + w)
          | _ -> None)
        (Some 0) lvs

(* Conservative reset-path recognition: a guard is reset-like when it reads
   a sensitivity-list edge signal other than the clock (the async-reset
   form) or a signal whose name says reset (the sync-reset form). *)
let resetish_name n =
  let n = String.lowercase_ascii n in
  let has sub =
    let ls = String.length sub and ln = String.length n in
    let rec go i = i + ls <= ln && (String.sub n i ls = sub || go (i + 1)) in
    go 0
  in
  has "rst" || has "reset" || has "clear" || has "clr" || has "init"
  || has "preset" || has "por"

(* Nets assigned inside the taken branch of a reset-style conditional. *)
let reset_guarded_writes ~(guards : Names.t) (body : stmt) : Names.t =
  Ast_utils.fold_stmt
    (fun acc (sub : stmt) ->
      match sub.s with
      | If (c, Some t, _)
        when List.exists (fun n -> Names.mem n guards) (Ast_utils.expr_idents c) ->
          Names.union acc (Deps.stmt_writes t)
      | _ -> acc)
    (fun acc _ -> acc)
    Names.empty body

(* --- Checks ------------------------------------------------------------- *)

type check = Comb_loop | Uninit_reg | Width | Const_cond | Dataflow_facts | Cone

let all_checks =
  [ Comb_loop; Uninit_reg; Width; Const_cond; Dataflow_facts; Cone ]

let finding = Lint.finding

(* Combinational loops: Tarjan SCC over the zero-delay edges of continuous
   assigns and combinational processes. A loop is reported at the last
   zero-delay assignment (in source order) to its first member. *)
let check_comb_loop ~modname (g : Deps.t) : Lint.finding list =
  let succs = Hashtbl.create 16 in
  let rep_node = Hashtbl.create 16 in
  let nodes = ref Names.empty in
  List.iter
    (fun (n : Deps.node) ->
      List.iter
        (fun (a : Deps.assign) ->
          List.iter
            (fun target ->
              Names.iter
                (fun src ->
                  nodes := Names.add src (Names.add target !nodes);
                  Hashtbl.replace rep_node target a.a_id;
                  Hashtbl.replace succs src
                    (Names.add target
                       (Option.value (Hashtbl.find_opt succs src)
                          ~default:Names.empty)))
                a.a_supports)
            a.a_targets)
        n.assigns)
    (Deps.nodes g);
  (* Tarjan's strongly-connected components, iteratively small enough to
     recurse: modules here are a few hundred nets at most. *)
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let counter = ref 0 in
  let sccs = ref [] in
  let rec strongconnect v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace lowlink v !counter;
    incr counter;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    Names.iter
      (fun w ->
        if not (Hashtbl.mem index w) then (
          strongconnect w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w)))
        else if Option.value (Hashtbl.find_opt on_stack w) ~default:false then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (Option.value (Hashtbl.find_opt succs v) ~default:Names.empty);
    if Hashtbl.find lowlink v = Hashtbl.find index v then (
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            if w = v then w :: acc else pop (w :: acc)
      in
      sccs := pop [] :: !sccs)
  in
  Names.iter (fun v -> if not (Hashtbl.mem index v) then strongconnect v) !nodes;
  List.filter_map
    (fun scc ->
      let cyclic =
        match scc with
        | [ v ] ->
            Names.mem v
              (Option.value (Hashtbl.find_opt succs v) ~default:Names.empty)
        | _ -> List.length scc > 1
      in
      if not cyclic then None
      else
        let members = List.sort compare scc in
        let node =
          List.fold_left
            (fun acc n ->
              match acc with
              | Some _ -> acc
              | None -> Hashtbl.find_opt rep_node n)
            None members
          |> Option.value ~default:0
        in
        Some
          (finding Lint.Error "comb-loop" ~modname node
             "combinational feedback loop through %s (zero-delay cycle)"
             (String.concat " -> " (members @ [ List.hd members ]))))
    !sccs

(* X-propagation seeds: state registers that are read but have no
   initialization path, so they hold x from power-on and poison every
   computation they feed. *)
let check_uninit_reg ~modname (m : module_decl) (d : Dataflow.denv)
    (g : Deps.t) : Lint.finding list =
  let decl_nodes = Dataflow.decl_nodes m in
  let node_of n = Option.value (SMap.find_opt n decl_nodes) ~default:m.mid in
  let reads = Deps.all_reads g in
  let resets = Names.filter resetish_name reads in
  (* Zero-delay drivers recompute a net combinationally; clocked and
     self-timed processes hold state, initialized by an initial block or
     a reset branch. *)
  let comb_driven, state_driven, init_writes, reset_guarded =
    List.fold_left
      (fun (comb, state, init, reset) (n : Deps.node) ->
        let comb =
          List.fold_left
            (fun acc (a : Deps.assign) ->
              List.fold_left (fun acc t -> Names.add t acc) acc a.a_targets)
            comb n.assigns
        in
        match (n.kind, Deps.process_stmt n) with
        | ( Always ({ style = Clocked; _ } as sens),
            Some { s = EventCtrl (_, body); _ } ) ->
            let guards =
              Names.union resets (Names.of_list (List.map fst sens.edges))
            in
            let reset =
              match body with
              | Some body -> Names.union reset (reset_guarded_writes ~guards body)
              | None -> reset
            in
            (comb, Names.union state n.writes, init, reset)
        | Timed, _ -> (comb, Names.union state n.writes, init, reset)
        | Initial, _ -> (comb, state, Names.union init n.writes, reset)
        | _ -> (comb, state, init, reset))
      (Names.empty, Names.empty, Names.empty, Names.empty)
      (Deps.nodes g)
  in
  List.filter_map
    (fun r ->
      if
        (not (Names.mem r reads))
        || Dataflow.is_array d r
        || Dataflow.is_inited d r
        || Names.mem r init_writes
        || Names.mem r comb_driven
      then None
      else if not (Names.mem r state_driven) then
        Some
          (finding Lint.Warning "uninit-reg" ~modname (node_of r)
             "%s is read but never assigned: it stays x forever" r)
      else if Names.mem r reset_guarded then None
      else
        Some
          (finding Lint.Warning "uninit-reg" ~modname (node_of r)
             "%s is read but has no reset path or initial value (powers up \
              as x)"
             r))
    (Dataflow.regs d)

(* Bits needed to represent a non-negative literal value. *)
let bits_needed v =
  let rec go n v = if v = 0 then max n 1 else go (n + 1) (v lsr 1) in
  go 0 v

(* Width / truncation checking on assignments and port connections. *)
let check_width ~modname (d : Dataflow.denv) (g : Deps.t) : Lint.finding list =
  let acc = ref [] in
  let check_assign node lhs rhs =
    match lvalue_width d lhs with
    | None -> ()
    | Some lw -> (
        match rhs.e with
        | IntLit v when v >= 0 ->
            if bits_needed v > lw then
              acc :=
                finding Lint.Warning "width-truncation" ~modname node
                  "literal %d needs %d bits but the target %s is %d bit%s wide"
                  v (bits_needed v)
                  (String.concat "," (Ast_utils.lvalue_base lhs))
                  lw
                  (if lw = 1 then "" else "s")
                :: !acc
        | _ -> (
            match width_of d rhs with
            | Some rw when rw > lw ->
                acc :=
                  finding Lint.Warning "width-truncation" ~modname node
                    "assignment truncates a %d-bit value into %d-bit %s" rw lw
                    (String.concat "," (Ast_utils.lvalue_base lhs))
                  :: !acc
            | _ -> ()))
  in
  List.iter
    (fun (n : Deps.node) ->
      match (n.kind, n.item.it) with
      | _, ContAssign assigns ->
          List.iter (fun (lhs, rhs) -> check_assign n.id lhs rhs) assigns
      | _, (Always s | Initial s) ->
          ignore
            (Ast_utils.fold_stmt
               (fun () (sub : stmt) ->
                 match sub.s with
                 | Blocking (lhs, _, rhs) | Nonblocking (lhs, _, rhs) ->
                     check_assign sub.sid lhs rhs
                 | _ -> ())
               (fun () _ -> ())
               () s)
      | Instance { inst; child = Some callee; bindings }, _ ->
          let callee_d = Dataflow.denv_of callee in
          List.iter
            (fun (b : Deps.binding) ->
              match (b.conn, Dataflow.net_width callee_d b.port) with
              | Some e, Some pw -> (
                  match width_of d e with
                  | Some ew when pw <> ew ->
                      acc :=
                        finding Lint.Warning "port-width" ~modname n.id
                          "connection to %s.%s is %d bits but the port is %d bits"
                          inst b.port ew pw
                        :: !acc
                  | _ -> ())
              | _ -> ())
            bindings
      | _ -> ())
    (Deps.nodes g);
  List.rev !acc

(* Per-output backward-cone sizes (the [cone] rule family): how much of
   the module each output port transitively depends on — the slicing
   opportunity `cirfix slice` and slice-based repair exploit. Outputs are
   reported name-sorted, anchored at the port declaration. *)
let check_cone ~modname (m : module_decl) (g : Deps.t) : Lint.finding list =
  let total_size = Ast_utils.module_size m in
  Slice.output_ports m |> List.sort compare
  |> List.filter_map (fun o ->
         let plan = Slice.slice_graph g m ~outputs:[ o ] in
         if plan.Slice.sl_nodes_total = 0 then None
         else
           let node =
             List.find_map
               (fun (item : item) ->
                 match item.it with
                 | PortDecl (Output, _, _, names) when List.mem o names ->
                     Some item.iid
                 | _ -> None)
               m.items
             |> Option.value ~default:m.mid
           in
           let pct =
             if total_size = 0 then 100
             else
               100 * Ast_utils.module_size plan.Slice.sl_module / total_size
           in
           Some
             (finding Lint.Warning "cone" ~modname node
                "output %s: backward cone %d/%d nodes, %d/%d processes, %d%% \
                 of design"
                o
                (List.length plan.Slice.sl_kept)
                plan.Slice.sl_nodes_total plan.Slice.sl_procs_kept
                plan.Slice.sl_procs_total pct))

let check_module ?design ?(checks = all_checks) (m : module_decl) :
    Lint.finding list =
  let modname = m.mod_id in
  let g = Deps.build ?design m in
  (* The declaration environment and the dataflow fixpoint are built only
     for the checks that read them, each at most once: the default screen
     (comb loops alone) pays for neither. *)
  let denv = lazy (Dataflow.denv_of m) in
  let facts = lazy (Dataflow.facts_of m) in
  List.concat_map
    (function
      | Comb_loop -> check_comb_loop ~modname g
      | Uninit_reg -> check_uninit_reg ~modname m (Lazy.force denv) g
      | Width -> check_width ~modname (Lazy.force denv) g
      (* Constant conditions (if / ?: / while / case subjects) are proved
         by the dataflow fixpoint, which also carries the remaining
         dataflow rules. *)
      | Const_cond ->
          Dataflow.const_cond_findings ~modname m (Lazy.force facts)
      | Dataflow_facts -> Dataflow.extra_findings ~modname m (Lazy.force facts)
      | Cone -> check_cone ~modname m g)
    checks

let check_design (d : design) : (string * Lint.finding list) list =
  List.map (fun (m : module_decl) -> (m.mod_id, check_module ~design:d m)) d

let screen ~checks (m : module_decl) : string option =
  (* Cone findings are descriptive (every output has a cone), never a
     reason to reject a mutant. *)
  let checks = List.filter (fun c -> c <> Cone) checks in
  Lint.screen_reason (check_module ?design:None ~checks m)
