(** Repair operators (paper Sec. 3.4): mutation (replace / insert /
    delete) over the fault-localization space drawing from the
    fix-localization pools, repair-template draws, and single-point
    crossover over edit lists. All randomness flows through the caller's
    [Random.State.t] for reproducible trials. *)

(** The statements a mutation may target among [fl_stmts]: all but raw
    blocks and bare timing controls. *)
val targets : Verilog.Ast.stmt list -> Verilog.Ast.stmt array

(** Draw one mutation edit for a parent whose proposal index is [idx]
    and whose mutation targets are [targets]. The delete/insert/replace
    split follows the configured thresholds; sources come from the
    index's pools. [None] when no applicable edit exists (e.g. empty
    pools). *)
val mutate_index :
  Random.State.t ->
  Config.t ->
  Index.t ->
  targets:Verilog.Ast.stmt array ->
  Patch.edit option

(** [mutate rng cfg m ~fl_stmts] is [mutate_index] on [Index.of_module m]
    with [targets fl_stmts]: the same draws, the same edit. *)
val mutate :
  Random.State.t ->
  Config.t ->
  Verilog.Ast.module_decl ->
  fl_stmts:Verilog.Ast.stmt list ->
  Patch.edit option

(** Per template, the node ids a template draw targets: the template's
    eligible nodes in the localization set [fl], or all of them when none
    is. Computed once per template site. *)
val template_sites :
  Index.t -> fl:Fault_loc.IdSet.t -> Templates.t -> Verilog.Ast.id array

(** Draw a repair-template edit (Algorithm 1 line 8): a template, a
    target among [sites tpl], and a signal for the sensitivity-list
    templates. *)
val template_index :
  Random.State.t ->
  Index.t ->
  sites:(Templates.t -> Verilog.Ast.id array) ->
  Patch.edit option

(** [template_index] on [Index.of_module m] with [template_sites ~fl]. *)
val template_edit :
  Random.State.t ->
  Verilog.Ast.module_decl ->
  fl:Fault_loc.IdSet.t ->
  Patch.edit option

(** Standard single-point crossover: swap edit-list suffixes, producing
    two children. *)
val crossover : Random.State.t -> Patch.t -> Patch.t -> Patch.t * Patch.t
