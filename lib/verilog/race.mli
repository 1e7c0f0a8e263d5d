(** Elaboration-aware scheduling-hazard (race) analysis.

    Flattens the design hierarchy the way the simulator's elaborator binds
    ports — whole-net identifier connections alias the child port to the
    parent net; other connections become dependence edges — then checks
    four hazard classes over processes grouped by event region. Initial
    blocks are exempt throughout (testbench stimulus convention). *)

type hazard =
  | Write_write
      (** one signal procedurally written by two always processes that can
          execute in the same event region — severity [Error] *)
  | Blocking_rw
      (** a signal blocking-assigned in one clocked process and read by
          another under the same clock edge: the reader sees old or new
          data depending on scheduler order — severity [Warning] *)
  | Mixed_assign
      (** one register written by both blocking and non-blocking
          assignments — severity [Warning] *)
  | Stale_read
      (** a combinational process reads a signal that can change at
          runtime but is missing from its sensitivity list — severity
          [Warning] *)

val all_hazards : hazard list

val check_design :
  ?hazards:hazard list -> top:string -> Ast.design -> Lint.finding list
(** Flatten the hierarchy under [top] and report hazards, sorted by
    (instance path, node, rule, message). A finding's [modname] is the
    instance path of the offending process; [node] its statement node.
    Unknown [top] or opaque instances yield no findings. An instance of a
    module already on its own instantiation path is not flattened: it is
    an [Error] finding, [recursive-instance], at the instance's item. *)

val roots : Ast.design -> string list
(** Top candidates: modules never instantiated by another module of the
    design, in source order, then the first module, in source order, of
    each instantiation cycle that none of those reaches. *)

val check_module : ?hazards:hazard list -> Ast.module_decl -> Lint.finding list
(** [check_design] with the single module as its own top: the per-module
    form used by the repair engine's pre-simulation screener. *)

val screen : hazards:hazard list -> Ast.module_decl -> string option
(** Screening hook for candidate evaluation: [Some reason] when any
    enabled hazard fires on the module ([Error]-severity findings win the
    message), [None] when the module is race-clean. *)
