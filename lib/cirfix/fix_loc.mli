(** Fix localization (paper Sec. 3.6): restrict where the insert and
    replace operators draw code from, so fewer mutants are syntactically or
    semantically invalid (the paper reports a 35% to 10% reduction in
    non-compiling mutants). The pools are arrays of a module's proposal
    index ({!Index.insertion}, {!Index.same_class}, {!Index.unrestricted}
    for the ablation), in module statement order; these functions take a
    module, index it and copy a pool. *)

(** Statement-typed nodes eligible as insertion sources (assignments,
    conditionals, case statements, loops, event triggers — IEEE Annex
    A.6.4), drawn from procedural blocks. *)
val insertion_pool : Verilog.Ast.module_decl -> Verilog.Ast.stmt list

(** Replacement sources sharing the target's statement class. *)
val replacement_pool :
  Verilog.Ast.module_decl ->
  target:Verilog.Ast.stmt ->
  Verilog.Ast.stmt list
