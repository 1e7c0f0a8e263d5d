(** The module-level dependence graph.

    One {e node} per module item that computes values: a continuous
    assign, an always or initial process, an instance, or a declaration
    with an initializer. The graph is built in one walk over the items
    and records, per node, what it reads and writes and, for zero-delay
    logic, which signals each assignment depends on. {!Analysis},
    {!Slice}, {!Race} and {!Lint} are queries over it.

    Names are the module's own (unqualified) identifiers. "Reads" always
    means every identifier in [Ident], bit-select and part-select
    position, index expressions included. *)

module Names : Set.S with type elt = string and type t = Set.Make(String).t

(** {1 Nodes} *)

type style =
  | Clocked  (** only posedge/negedge items *)
  | Combinational  (** level or star sensitivity *)
  | Mixed  (** both edge and level items: usually a mistake *)

type sens = {
  style : style;
  star : bool;  (** the [@*] form *)
  listed : Names.t;  (** every identifier in the sensitivity list *)
  edges : (string * bool) list;
      (** identifiers under posedge ([true]) or negedge ([false]), in list
          order *)
}

type binding = {
  port : string;  (** the child port *)
  dir : Ast.direction option;  (** its declared direction, if declared *)
  conn : Ast.expr option;  (** [None] for an unconnected [.p()] *)
}
(** One resolved instance connection. *)

type kind =
  | Assign  (** continuous [assign] (one item, one or more pairs) *)
  | Always of sens  (** always with a leading event control *)
  | Timed  (** always without one: self-timed, e.g. a clock generator *)
  | Initial
  | Instance of {
      inst : string;  (** instance name *)
      child : Ast.module_decl option;
          (** the instantiated module, when the design given to {!build}
              has it; [None] means opaque *)
      bindings : binding list;  (** {!resolve_conns} of the child; [] if opaque *)
    }
  | Decl_init  (** a net or reg declaration with an initializer *)

type assign = {
  a_id : Ast.id;
      (** the assignment statement; the item for a continuous assign *)
  a_supports : Names.t;
      (** signals whose change re-evaluates this assignment at zero
          delay: its RHS, its LHS index expressions, enclosing control
          conditions, gated by the sensitivity list unless [@*] *)
  a_targets : string list;  (** assigned nets, left to right *)
}

type node = {
  id : Ast.id;  (** item id *)
  item : Ast.item;
  kind : kind;
  reads : Names.t;
      (** for processes, the reads of the body (an [Always]'s sensitivity
          list is in [sens.listed], see {!fan_in}); for an instance, its
          parameter overrides and the connections it reads (an output
          connection's base net is a write, not a read); for a
          declaration, its initializers *)
  writes : Names.t;  (** every net the node drives *)
  blk : Names.t;  (** nets a process writes by blocking assignment *)
  nba : Names.t;  (** nets a process writes by non-blocking assignment *)
  assigns : assign list;
      (** zero-delay assignments in source order: each pair of an
          [Assign]; for a combinational or mixed [Always], each assignment
          reached without crossing a timing control or a delay; empty
          otherwise *)
}

type t

val build : ?design:Ast.design -> Ast.module_decl -> t
(** [design] supplies instantiated modules, so that instance connections
    get port directions. Without it, or for a module it lacks, an
    instance reads every connected expression and writes every connected
    net. The nodes are built here; {!writers}, {!owner} and {!all_reads}
    build their indexes on first use. A graph is not meant to be shared
    between domains. *)

(** {1 Queries} *)

val nodes : t -> node list
(** In source order. *)

val writers : t -> string -> node list
(** Nodes writing a net, in source order. *)

val owner : t -> Ast.id -> Ast.id option
(** The item containing a statement or expression id (or an item id
    itself). *)

val all_reads : t -> Names.t
(** Every identifier read anywhere in the module, declarations,
    parameter values and sensitivity lists included. *)

val params : t -> Names.t
(** Parameter and localparam names. *)

val fan_in : node -> Names.t
(** [reads] plus, for an [Always], its sensitivity list: everything the
    node's values depend on. *)

val is_process : node -> bool
(** [Always], [Timed] or [Initial]. *)

val process_stmt : node -> Ast.stmt option
(** The statement of an always or initial item. *)

(** {1 Helpers} *)

val resolve_conns :
  Ast.module_decl -> Ast.port_conn list -> binding list * Ast.expr list
(** Bind an instance's connections to the child's ports: named ones by
    name, positional ones by the child's header order. Returns the
    bindings in connection order and the positional connections past the
    end of the header, which the elaborator rejects and the analyses
    ignore. A port declared twice takes its last direction. *)

val port_directions : Ast.module_decl -> (string, Ast.direction) Hashtbl.t
(** Declared port directions, last declaration winning. *)

val expr_reads : Names.t -> Ast.expr -> Names.t
(** [expr_reads acc e] adds every identifier [e] reads to [acc]. *)

val item_reads : Ast.item -> Names.t
(** Every identifier read anywhere in one item. *)

val stmt_writes : Ast.stmt -> Names.t
(** Nets assigned anywhere in a statement subtree. *)
