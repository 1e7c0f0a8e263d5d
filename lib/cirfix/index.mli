(** The proposal index of one module: per item, every fact that fault
    localization ({!Fault_loc}), the fix-localization pools ({!Fix_loc}),
    the repair templates ({!Templates}) and the mutation operators
    ({!Mutate}) read, so that proposing a candidate costs in proportion to
    its parent's edits rather than to the module.

    {!of_module} [~base] takes [base]'s facts for every item that is
    physically ([==]) [base]'s item at the same position and indexes only
    the others. A repair run indexes the seed once; each parent's index is
    derived from an ancestor's, so only the items that the parent's edits
    touched are indexed again. Arrays keep the order of
    {!Verilog.Ast_utils.stmts_of_module} (statements) and
    {!Verilog.Ast_utils.exprs_of_module} (expressions), so a draw over an
    array is the draw the list-based operators made. *)

module NameSet : Set.S with type elt = string

(** Maximum node count of a fragment used as an edit payload; larger
    subtrees are never drawn, preventing exponential candidate growth
    across stacked insertions. *)
val max_fragment_size : int

(** Statement kinds eligible as insertion sources (assignments,
    conditionals, case statements, loops, event triggers — IEEE Annex
    A.6.4). *)
val insertable : Verilog.Ast.stmt -> bool

(** All identifiers appearing in a statement subtree, including names
    written by assignments. *)
val stmt_idents : Verilog.Ast.stmt -> NameSet.t

type stmt_facts = private {
  stmt : Verilog.Ast.stmt;
  cls : Verilog.Ast_utils.stmt_class;
  small : bool;  (** at most {!max_fragment_size} nodes *)
  insertable : bool;
  conditional : bool;  (** if, case, while or for: Impl-Ctrl *)
  writes : NameSet.t option;
      (** an assignment's lvalue base names (Impl-Data); [None] for other
          statements *)
  idents : NameSet.t;  (** {!stmt_idents} *)
  tree : Verilog.Ast.id array;
      (** the node ids of the statement's item in preorder; the
          statement's subtree is [tree.(lo)] to [tree.(hi - 1)] *)
  lo : int;
  hi : int;
  desc : int;
      (** the number of statements below this one: in a statement array
          in module order, they follow it *)
}

(** One continuous assignment [lhs = rhs]. *)
type cont_facts = private {
  c_writes : NameSet.t;  (** the lvalue's base names *)
  c_ids : Verilog.Ast.id list;  (** the item's id and [rhs]'s node ids *)
  c_names : NameSet.t;  (** identifiers of [rhs] *)
}

(** Where a repair template can fire. *)
type site =
  | Conditional  (** if and while statements *)
  | Event_control  (** event controls *)
  | Blocking_assign
  | Nonblocking_assign
  | Value  (** identifier and literal expressions *)

type item_facts = private {
  item : Verilog.Ast.item;
  i_stmts : stmt_facts array;
  i_conts : cont_facts array;
  i_sites : Verilog.Ast.id array array;  (** per site *)
}

type t = private {
  decl : Verilog.Ast.module_decl;  (** the indexed module *)
  items : item_facts array;
  stmts : stmt_facts array;  (** every statement, in module order *)
  conts : cont_facts array;  (** every continuous assignment *)
  insertion : Verilog.Ast.stmt array Lazy.t;
  unrestricted : Verilog.Ast.stmt array Lazy.t;
  by_class : Verilog.Ast.stmt array array Lazy.t;
  sites : Verilog.Ast.id array array Lazy.t;
  names : string array Lazy.t;
}

(** Index [m], reusing [base]'s facts for the items [m] shares with it
    physically. With metrics enabled, counts the items indexed
    ([gp.index_items_built]) and taken from [base]
    ([gp.index_items_shared]). *)
val of_module : ?base:t -> Verilog.Ast.module_decl -> t

(** Insertable statements that are small: the insertion pool. *)
val insertion : t -> Verilog.Ast.stmt array

(** Every small statement: the pool when fix localization is off (the
    ablation). *)
val unrestricted : t -> Verilog.Ast.stmt array

(** The small statements of [s]'s class, [s] itself included when it is
    in the module and small. *)
val same_class : t -> Verilog.Ast.stmt -> Verilog.Ast.stmt array

(** The ids a template of this site can fire at. *)
val sites : t -> site -> Verilog.Ast.id array

(** Every identifier that the module's statements mention, sorted: the
    signals the sensitivity templates draw. *)
val names : t -> string array
