(** Repair patches: each candidate program variant is a sequence of AST
    edits parameterized by node numbers (paper Sec. 3). Edits embed the
    fragment they insert or substitute, so a patch applies deterministically
    to the original module; an edit whose target no longer exists is a
    no-op, as in GenProg-style patch representations. *)

type edit =
  | Replace of Verilog.Ast.id * Verilog.Ast.stmt
      (** replace the statement with the embedded fragment *)
  | Insert of Verilog.Ast.id * Verilog.Ast.stmt
      (** insert the fragment after the statement *)
  | Delete of Verilog.Ast.id
  | Template of Templates.t * Verilog.Ast.id * string option
      (** template application at a node, with an optional signal
          parameter for the sensitivity-list templates *)

type t = edit list

(** Structural equality of edits that tries physical equality of the
    embedded fragments first. *)
val equal_edit : edit -> edit -> bool

(** A hash consistent with {!equal_edit}. *)
val hash_edit : edit -> int

val edit_to_string : edit -> string
val to_string : t -> string

(** Apply one edit; [None] when the target id is absent from the module. *)
val apply_edit :
  Verilog.Ast.module_decl -> edit -> Verilog.Ast.module_decl option

(** [extend m e]: [m] with [e] applied, or [m] itself when [e] does not
    apply, so that [apply m (p @ [ e ]) = extend (apply m p) e]. *)
val extend : Verilog.Ast.module_decl -> edit -> Verilog.Ast.module_decl

(** Apply a whole patch to the original module, skipping edits that no
    longer apply. *)
val apply : Verilog.Ast.module_decl -> t -> Verilog.Ast.module_decl
