(** Semantic slicing: cones of influence over the module's dependence
    graph ({!Deps}), and extraction of self-contained sliced modules.

    The {e backward cone} of a signal set is the transitive fan-in: every
    node whose outputs can reach the set through reads, plus the
    write-closure that keeps multiply-driven nets whole. The {e forward
    cone} of a node set is the transitive fan-out.

    {!slice} extracts the backward cone of a set of output ports as a
    standalone module: in-cone declarations and processes verbatim
    (statement node ids preserved, so a repair patch found against the
    slice applies unchanged to the original module) and out-of-cone logic
    dropped. *)

module Names : Set.S with type elt = string and type t = Deps.Names.t
module Ids : Set.S with type elt = int

(** {1 Cones} *)

val backward : Deps.t -> Names.t -> Ids.t * Names.t
(** [backward g seed] is the transitive fan-in of the seed signals: the
    implicated node ids and every net name the cone touches. Any net
    written by an in-cone node keeps {e all} of its writers (write
    closure), so in-cone values are exactly the whole module's. *)

val forward : Deps.t -> Ids.t -> Ids.t
(** [forward g seed] is the transitive fan-out of the seed {e nodes}:
    ids may be item ids or any statement/expression id inside an item
    (e.g. a fault-localization set); they are resolved to their owning
    items first. *)

(** {1 Slice extraction} *)

type plan = {
  sl_module : Ast.module_decl;  (** the extracted slice *)
  sl_outputs : string list;  (** retained output ports, header order *)
  sl_inputs : string list;  (** retained original input ports, header order *)
  sl_kept : Ast.id list;  (** kept logic item ids, source order *)
  sl_dropped : Ast.id list;  (** dropped logic item ids, source order *)
  sl_names : Names.t;  (** every net the kept logic touches *)
  sl_nodes_total : int;  (** logic nodes in the whole module *)
  sl_procs_kept : int;
  sl_procs_total : int;
  sl_hash : string;  (** [Ast_utils.structural_hash] of [sl_module] *)
}

val slice : ?design:Ast.design -> Ast.module_decl -> outputs:string list -> plan
(** Extract the backward cone of [outputs] (output-port names of the
    module; unknown names are ignored). The slice is closed under fan-in
    and simulates byte-identically on [sl_outputs]. [design] is passed to
    {!Deps.build}. *)

val slice_graph : Deps.t -> Ast.module_decl -> outputs:string list -> plan
(** {!slice} over an already-built graph of the module, for callers that
    slice one module for several output sets. *)

val output_ports : Ast.module_decl -> string list
(** Output-port names, header order. *)

(** {1 Testbench harness} *)

val find_instance : Ast.module_decl -> inst:string -> target:string -> Ast.item option
(** The instance item named [inst] of module [target], if any. *)

val tb_read_outputs :
  tb:Ast.module_decl -> inst:string -> target:Ast.module_decl -> Names.t
(** Output ports of [target] whose testbench-side connection net is read
    by testbench logic (stimulus, checkers, or other instances) — a
    reactive testbench's feedback signals. Dropping these from a slice
    would change the stimulus, so slicing seeds must retain them. *)

val rewrite_testbench :
  tb:Ast.module_decl -> inst:string -> target:Ast.module_decl -> plan ->
  Ast.module_decl
(** Rewrite the [inst] instance of [target] for the sliced module:
    connections are re-emitted by name in slice-header order and
    connections to dropped ports removed. *)

(** {1 Reporting helpers} *)

val cone_lines : Ast.module_decl -> plan -> (string, unit) Hashtbl.t
(** Trimmed renderings of every line belonging to the cone — kept logic
    items verbatim plus declarations of cone nets — keyed for membership
    tests against pretty-printed module lines (the heat-map convention of
    {!Fault_loc.heat_lines}). *)
