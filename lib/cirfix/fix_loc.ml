(* Fix localization (paper Sec. 3.6): restrict where insert/replace
   operators draw code from, cutting syntactically/semantically invalid
   mutants (the paper reports 35% -> 10% non-compiling mutants). Insertion
   sources are statement-typed nodes from procedural blocks; replacements
   must share the target's statement class. The proposal index holds the
   pools ([Index.insertion], [Index.same_class]); these functions index a
   module and read them. *)

open Verilog.Ast

let insertion_pool (m : module_decl) : stmt list =
  Array.to_list (Index.insertion (Index.of_module m))

(* Replacement sources for a target: same statement class, other id. *)
let replacement_pool (m : module_decl) ~(target : stmt) : stmt list =
  Array.to_list (Index.same_class (Index.of_module m) target)
  |> List.filter (fun (s : stmt) -> s.sid <> target.sid)
