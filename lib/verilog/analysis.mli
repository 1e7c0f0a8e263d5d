(** Semantic static analysis over a module's dependence graph ({!Deps}).
    Unlike {!Lint}, which checks style and synthesizability conventions,
    this pass reasons about semantics —
    combinational feedback, x-propagation seeds, width truncation, and
    statically-decided control flow — and is cheap enough to run on every
    repair candidate before simulation (the repair engine's pre-simulation
    mutant screener). *)

(** {1 Analyses} *)

type check =
  | Comb_loop
      (** zero-delay combinational cycles across continuous assigns and
          combinational always blocks (sensitivity-gated, so a clocked
          [q <= q + 1] never fires) — severity [Error] *)
  | Uninit_reg
      (** state registers read before any initialization: no declaration
          initializer, no initial-block write, no reset path — severity
          [Warning] *)
  | Width
      (** truncating assignments and mismatched instance port connection
          widths, using [logic4] vector widths — severity [Warning] *)
  | Const_cond
      (** statically-decided conditions (if / ?: / while / case subjects),
          making a branch unreachable — proved by the {!Dataflow} known-bits
          fixpoint since PR 6 — severity [Warning] *)
  | Dataflow_facts
      (** the remaining dataflow rules: constant-net, x-source,
          unreachable-code (case arms) and dead-assignment — severity
          [Warning] *)
  | Cone
      (** per-output backward-cone sizes over the {!Slice} graph
          (nodes, processes, and fraction of the design each output
          port depends on) — informational, severity [Warning]; keep it
          out of screening check lists *)

val all_checks : check list

val check_module :
  ?design:Ast.design ->
  ?checks:check list ->
  Ast.module_decl ->
  Lint.finding list
(** Run [checks] (default {!all_checks}) on one module. [design] supplies
    instantiated-module declarations for port-width checking; without it,
    instance connections are skipped. *)

val check_design : Ast.design -> (string * Lint.finding list) list
(** [check_module] over every module, with the full design as context. *)

val screen : checks:check list -> Ast.module_decl -> string option
(** Pre-simulation mutant screening: run the given checks and return a
    one-line rejection reason if any finding fires ([Error]-severity
    findings win over warnings), or [None] if the module passes. The
    informational {!Cone} check is always excluded — it fires on every
    module with outputs and implies nothing about simulation outcome. *)
