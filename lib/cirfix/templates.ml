(* The nine CirFix repair templates (paper Table 1), spanning four defect
   categories: conditionals, sensitivity lists, assignment kinds, and
   numeric errors. *)

open Verilog.Ast

type t =
  | Negate_conditional
  | Sens_posedge (* trigger an always block on a signal's rising edge *)
  | Sens_negedge (* ... falling edge *)
  | Sens_level (* ... when a signal is level (any change of that signal) *)
  | Sens_any_change (* ... on any change to a variable within the block *)
  | Sens_add_posedge (* add a rising-edge item to an existing list *)
  | Sens_add_negedge (* add a falling-edge item to an existing list *)
  | To_nonblocking (* change = to <= *)
  | To_blocking (* change <= to = *)
  | Increment_value
  | Decrement_value

let all =
  [
    Negate_conditional;
    Sens_posedge;
    Sens_negedge;
    Sens_level;
    Sens_any_change;
    Sens_add_posedge;
    Sens_add_negedge;
    To_nonblocking;
    To_blocking;
    Increment_value;
    Decrement_value;
  ]

let to_string = function
  | Negate_conditional -> "negate-conditional"
  | Sens_posedge -> "sensitivity:posedge"
  | Sens_negedge -> "sensitivity:negedge"
  | Sens_level -> "sensitivity:level"
  | Sens_any_change -> "sensitivity:any-change"
  | Sens_add_posedge -> "sensitivity:add-posedge"
  | Sens_add_negedge -> "sensitivity:add-negedge"
  | To_nonblocking -> "assignment:to-nonblocking"
  | To_blocking -> "assignment:to-blocking"
  | Increment_value -> "numeric:increment"
  | Decrement_value -> "numeric:decrement"

let defect_category = function
  | Negate_conditional -> "Conditionals"
  | Sens_posedge | Sens_negedge | Sens_level | Sens_any_change
  | Sens_add_posedge | Sens_add_negedge ->
      "Sensitivity Lists"
  | To_nonblocking | To_blocking -> "Assignments"
  | Increment_value | Decrement_value -> "Numeric"

(* Apply a template at node [target] of [m]. [signal] parameterizes the
   sensitivity-list templates (which edge/level signal to use). Returns
   [None] when the template does not apply at that node, so the caller can
   re-draw. *)
let apply (tpl : t) ?(signal : string option) (m : module_decl)
    ~(target : id) : module_decl option =
  match tpl with
  | Negate_conditional ->
      Verilog.Ast_utils.transform_stmt m ~target ~f:(fun s ->
          match s.s with
          | If (c, t, e) ->
              Some { s with s = If ({ c with e = Unop (Unot, c) }, t, e) }
          | While (c, b) ->
              Some { s with s = While ({ c with e = Unop (Unot, c) }, b) }
          | _ -> None)
  | Sens_add_posedge | Sens_add_negedge ->
      Verilog.Ast_utils.transform_stmt m ~target ~f:(fun s ->
          match (s.s, signal) with
          | EventCtrl (specs, k), Some sig_ ->
              let spec =
                if tpl = Sens_add_posedge then
                  Posedge { eid = target; e = Ident sig_ }
                else Negedge { eid = target; e = Ident sig_ }
              in
              let already =
                List.exists
                  (fun sp ->
                    match (sp, spec) with
                    | Posedge { e = Ident a; _ }, Posedge { e = Ident b; _ }
                    | Negedge { e = Ident a; _ }, Negedge { e = Ident b; _ } ->
                        a = b
                    | _ -> false)
                  specs
              in
              if already then None
              else Some { s with s = EventCtrl (specs @ [ spec ], k) }
          | _ -> None)
  | Sens_posedge | Sens_negedge | Sens_level | Sens_any_change ->
      Verilog.Ast_utils.transform_stmt m ~target ~f:(fun s ->
          match s.s with
          | EventCtrl (_, k) ->
              let specs =
                match (tpl, signal) with
                | Sens_any_change, _ -> Some [ AnyChange ]
                | Sens_posedge, Some sig_ ->
                    Some [ Posedge { eid = target; e = Ident sig_ } ]
                | Sens_negedge, Some sig_ ->
                    Some [ Negedge { eid = target; e = Ident sig_ } ]
                | Sens_level, Some sig_ ->
                    Some [ Level { eid = target; e = Ident sig_ } ]
                | _ -> None
              in
              Option.map (fun specs -> { s with s = EventCtrl (specs, k) }) specs
          | _ -> None)
  | To_nonblocking ->
      Verilog.Ast_utils.transform_stmt m ~target ~f:(fun s ->
          match s.s with
          | Blocking (lhs, d, rhs) -> Some { s with s = Nonblocking (lhs, d, rhs) }
          | _ -> None)
  | To_blocking ->
      Verilog.Ast_utils.transform_stmt m ~target ~f:(fun s ->
          match s.s with
          | Nonblocking (lhs, d, rhs) -> Some { s with s = Blocking (lhs, d, rhs) }
          | _ -> None)
  | Increment_value | Decrement_value ->
      let op = if tpl = Increment_value then Add else Sub in
      Verilog.Ast_utils.transform_expr m ~target ~f:(fun e ->
          match e.e with
          | Ident _ | Number _ | IntLit _ ->
              Some
                {
                  e with
                  e = Binop (op, { e with eid = e.eid }, { eid = e.eid; e = IntLit 1 });
                }
          | _ -> None)

(* Where a template can fire; the proposal index keeps those ids. *)
let site : t -> Index.site = function
  | Negate_conditional -> Conditional
  | Sens_posedge | Sens_negedge | Sens_level | Sens_any_change
  | Sens_add_posedge | Sens_add_negedge ->
      Event_control
  | To_nonblocking -> Blocking_assign
  | To_blocking -> Nonblocking_assign
  | Increment_value | Decrement_value -> Value

let eligible (tpl : t) (idx : Index.t) : id array = Index.sites idx (site tpl)

(* Nodes at which a template can fire, used to draw targets. *)
let eligible_targets (tpl : t) (m : module_decl) : id list =
  Array.to_list (eligible tpl (Index.of_module m))
