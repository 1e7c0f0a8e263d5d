(** Repair templates (paper Table 1): pre-identified fix patterns for the
    four commonly-occurring HDL defect categories — conditionals,
    sensitivity lists, assignment kinds, and numeric errors.

    The paper lists nine patterns; this implementation splits the
    sensitivity-list patterns into replace-list and add-item variants
    (eleven concrete templates), since fixes like "reset missing from the
    sensitivity list" require extending an existing list while "wrong
    clock edge" requires replacing it. See DESIGN.md. *)

type t =
  | Negate_conditional  (** negate the condition of an if or while *)
  | Sens_posedge  (** trigger the block on a signal's rising edge *)
  | Sens_negedge  (** trigger the block on a signal's falling edge *)
  | Sens_level  (** trigger the block when a signal is level *)
  | Sens_any_change  (** trigger on any change to a variable in the block *)
  | Sens_add_posedge  (** add a rising-edge item to the existing list *)
  | Sens_add_negedge  (** add a falling-edge item to the existing list *)
  | To_nonblocking  (** change a blocking assignment to non-blocking *)
  | To_blocking  (** change a non-blocking assignment to blocking *)
  | Increment_value  (** increment an identifier or literal by 1 *)
  | Decrement_value  (** decrement an identifier or literal by 1 *)

val all : t list
val to_string : t -> string

(** Table 1 defect category of a template. *)
val defect_category : t -> string

(** [apply tpl ?signal m ~target] applies the template at node [target];
    [signal] parameterizes the sensitivity-list templates. [None] when the
    template does not fit that node (wrong node kind, duplicate edge,
    missing signal). *)
val apply :
  t ->
  ?signal:string ->
  Verilog.Ast.module_decl ->
  target:Verilog.Ast.id ->
  Verilog.Ast.module_decl option

(** The kind of node the template fires at. *)
val site : t -> Index.site

(** Node ids of the indexed module at which the template can fire, in
    module order, used to draw targets. *)
val eligible : t -> Index.t -> Verilog.Ast.id array

(** [eligible_targets tpl m] is [eligible tpl (Index.of_module m)] as a
    list. *)
val eligible_targets : t -> Verilog.Ast.module_decl -> Verilog.Ast.id list
