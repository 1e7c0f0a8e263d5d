(* Forward dataflow abstract interpretation over one module.

   The domain is known bits on 4-valued logic: a net's value is a
   [Logic4.Packed] value plus a known mask of the same width (each masked
   bit is that bit of the value, 0/1/x/z, in every execution; the others
   are top), or [Any] when the width is unknown or beyond
   [Ast.max_vector_width]. Values are joined to a fixpoint over every
   driver, with control reachability pruned by the abstract values
   themselves. Fully known operands fold through the simulator's own
   operator table ([Ops]) and case matcher, so proved facts hold in every
   concrete run; reads and writes come from [Deps].

   Consumers: the `analyze` lint rules (constant-condition — subsuming
   the older [Analysis] check — plus constant-net, x-source,
   unreachable-code and dead-assignment), the [Canon] width oracle and
   constant folder, and the repair loop's dead-edit pruning via
   [prune_hash]. *)

(* Declarations of one module: parameter values (evaluated in
   declaration order, as the elaborator does), net widths, memories,
   storage kinds and port directions. The one per-module declaration
   environment: [Analysis]'s width and uninit-reg rules read it too. *)
type denv

val denv_of : Ast.module_decl -> denv
val param_value : denv -> string -> Logic4.Packed.t option

(* Storage width; a range the evaluator cannot fold counts as 1 bit. *)
val net_width : denv -> string -> int option
val is_array : denv -> string -> bool

(* Names declared [reg] (not [integer]), name-sorted. *)
val regs : denv -> string list

(* Has a declaration initializer ([reg r = e], [wire w = e]). *)
val is_inited : denv -> string -> bool

(* Parameters-only integer value of an expression (range bounds,
   replication counts), through the abstract evaluator. *)
val param_int : denv -> Ast.expr -> int option

(* Width of an [msb:lsb] range or part-select whose bounds [param_int]
   folds. *)
val span_width : denv -> Ast.expr -> Ast.expr -> int option

(* Name -> first declaring item (port, net or event declaration). *)
val decl_nodes : Ast.module_decl -> Ast.id Map.Make(String).t

(* Width of the vector the simulator's evaluator would return for this
   expression, when it is statically determined. *)
val expr_width : denv -> Ast.expr -> int option

(* Exact parameters-only evaluation: [Some v] only when the concrete
   evaluator returns [v] in every state and cannot fault on the way
   (every subterm is itself fully known). *)
val eval_const : denv -> Ast.expr -> Logic4.Packed.t option

(* True when the concrete evaluator is guaranteed to evaluate the
   expression without faulting: no system calls, range selects,
   replications or memory reads, and every identifier declared. *)
val safe_expr : denv -> Ast.expr -> bool

(* Does any process of the module contain a `@*` event control? Such
   processes derive their sensitivity from the full body text, which
   makes several otherwise-sound rewrites observable. *)
val module_has_anychange : Ast.module_decl -> bool

(* Fixpoint facts for one module. *)
type facts

val facts_of : Ast.module_decl -> facts

(* A net's fixpoint value as [(value, known)], both of the net's width:
   a bit set in [known] is that bit of [value] once the net's drivers
   have run, in every run of an instance with default parameters (the
   differential in test/sim_equiv_run.ml checks it). Unknown bits of
   [value] read 0. [None] when nothing drives the net or its width is
   not tracked. *)
val known_bits : facts -> string -> (Logic4.Packed.t * Logic4.Packed.t) option

(* The "constant-condition" rule (stable id shared with PR 1's check,
   which now delegates here), over the module's facts. *)
val const_cond_findings :
  modname:string -> Ast.module_decl -> facts -> Lint.finding list

(* The remaining dataflow rules: constant-net, x-source,
   unreachable-code and dead-assignment, in pinned order. *)
val extra_findings :
  modname:string -> Ast.module_decl -> facts -> Lint.finding list

(* Hash of the module with provably-dead code erased: statements in
   branches decided by parameters/literals alone and stores to
   never-read non-port nets collapse to canonical markers. Two modules
   of equal [prune_hash] are fitness-equivalent under simulation (see
   DESIGN.md "Static pruning"), provided the module is not instantiated
   with parameter overrides — the caller gates on that. *)
val prune_hash : Ast.module_decl -> string
