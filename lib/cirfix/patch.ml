(* Repair patches: each program variant is a sequence of AST edits
   parameterized by node numbers (paper Sec. 3). Edits embed the source
   fragment to insert/replace, so a patch applies deterministically to the
   original module regardless of what earlier edits did; an edit whose
   target vanished (e.g. after a delete) is a no-op, as in GenProg-style
   patch representations. *)

open Verilog.Ast

type edit =
  | Replace of id * stmt (* replace statement [id] with the fragment *)
  | Insert of id * stmt (* insert the fragment after statement [id] *)
  | Delete of id
  | Template of Templates.t * id * string option (* template, target, signal *)

type t = edit list

(* Edits compare their fragments physically before structurally: a
   proposal's fragment is usually the very statement an earlier equal edit
   holds, and [( = )] would walk it anyway. *)
let equal_edit (a : edit) (b : edit) =
  a == b
  ||
  match (a, b) with
  | Replace (i, s), Replace (j, t) | Insert (i, s), Insert (j, t) ->
      i = j && (s == t || s = t)
  | Delete i, Delete j -> i = j
  | Template (tpl, i, sg), Template (tpl', j, sg') ->
      tpl = tpl' && i = j && Option.equal String.equal sg sg'
  | (Replace _ | Insert _ | Delete _ | Template _), _ -> false

(* A hash of the edit's kind, target and fragment id, consistent with
   [equal_edit]; integer arithmetic, so hashing allocates nothing. *)
let hash_edit (e : edit) =
  let mix kind a b = (((a * 65599) + b) * 4) + kind in
  (match e with
  | Replace (i, s) -> mix 0 i s.sid
  | Insert (i, s) -> mix 1 i s.sid
  | Delete i -> mix 2 i 0
  | Template (tpl, i, sg) -> mix 3 i (Hashtbl.hash (tpl, sg)))
  land max_int

let edit_to_string = function
  | Replace (id, s) ->
      Printf.sprintf "replace(%d, %s)" id
        (String.map (function '\n' -> ' ' | c -> c) (Verilog.Pp.stmt_to_string s))
  | Insert (id, s) ->
      Printf.sprintf "insert-after(%d, %s)" id
        (String.map (function '\n' -> ' ' | c -> c) (Verilog.Pp.stmt_to_string s))
  | Delete id -> Printf.sprintf "delete(%d)" id
  | Template (tpl, id, signal) ->
      Printf.sprintf "template(%s, %d%s)" (Templates.to_string tpl) id
        (match signal with None -> "" | Some s -> ", " ^ s)

let to_string (p : t) =
  if p = [] then "(empty patch)"
  else String.concat "; " (List.map edit_to_string p)

(* Apply one edit; [None] when the target id is absent. *)
let apply_edit (m : module_decl) (edit : edit) : module_decl option =
  match edit with
  | Replace (target, fragment) ->
      Verilog.Ast_utils.replace_stmt m ~target ~replacement:fragment
  | Insert (target, fragment) ->
      Verilog.Ast_utils.insert_after m ~target ~stmt:fragment
  | Delete target -> Verilog.Ast_utils.delete_stmt m ~target
  | Template (tpl, target, signal) -> Templates.apply tpl ?signal m ~target

(* One more edit: [m] with [edit] applied, or [m] itself when the edit no
   longer applies. *)
let extend (m : module_decl) (edit : edit) : module_decl =
  match apply_edit m edit with Some m' -> m' | None -> m

(* Apply a whole patch to the original module. Edits that no longer apply
   are skipped. *)
let apply (original : module_decl) (p : t) : module_decl =
  List.fold_left extend original p
