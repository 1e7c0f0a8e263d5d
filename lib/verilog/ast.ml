(* Abstract syntax for the Verilog subset CirFix repairs.

   Every node carries a unique integer id assigned at parse time: repair
   patches are sequences of edits parameterized by these node numbers
   (Sec. 3 of the paper; the artifact patches PyVerilog to add the same
   numbering). Ids share one namespace across expressions, statements and
   module items. *)

type id = int

(* Widest vector (in bits) any stage will build. Mutated index and
   replication expressions can evaluate to absurd widths (a part-select
   bound of 0 - 1 is 0xFFFFFFFF unsigned); a real simulator rejects such
   code, so elaboration fails it and the static analyses treat the value
   as unknown instead of allocating gigabyte vectors. *)
let max_vector_width = 65_536

type unop =
  | Uplus
  | Uminus
  | Unot (* ! *)
  | Ubnot (* ~ *)
  | Uand (* & reduction *)
  | Uor (* | reduction *)
  | Uxor (* ^ reduction *)
  | Unand
  | Unor
  | Uxnor

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Land (* && *)
  | Lor (* || *)
  | Band (* & *)
  | Bor (* | *)
  | Bxor (* ^ *)
  | Bxnor (* ~^ *)
  | Eq
  | Neq
  | Ceq (* === *)
  | Cneq (* !== *)
  | Lt
  | Le
  | Gt
  | Ge
  | Shl
  | Shr

type expr = { eid : id; e : expr_desc }

and expr_desc =
  | Number of Logic4.Vec.t (* sized literal, e.g. 4'b10x0 *)
  | IntLit of int (* unsized decimal literal; 32-bit at evaluation *)
  | Ident of string
  | Index of string * expr (* bit select or memory word select *)
  | RangeSel of string * expr * expr (* v[msb:lsb], constant bounds *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Cond of expr * expr * expr
  | Concat of expr list
  | Repl of expr * expr (* {n{expr}} *)
  | Call of string * expr list (* $time and friends *)
  | String of string (* format strings in system tasks *)

type lvalue =
  | LId of string
  | LIndex of string * expr
  | LRange of string * expr * expr
  | LConcat of lvalue list

type event_spec =
  | Posedge of expr
  | Negedge of expr
  | Level of expr (* @(sig) — any change / level sensitivity *)
  | AnyChange (* the star form: sensitivity to every read variable *)

type case_kind = Case | Casez | Casex

type stmt = { sid : id; s : stmt_desc }

and stmt_desc =
  | Block of string option * stmt list (* begin [:label] ... end *)
  | Blocking of lvalue * expr option * expr (* lhs = [#d] rhs *)
  | Nonblocking of lvalue * expr option * expr (* lhs <= [#d] rhs *)
  | If of expr * stmt option * stmt option
  | CaseStmt of case_kind * expr * case_arm list * stmt option (* default *)
  | For of stmt * expr * stmt * stmt
  | While of expr * stmt
  | Repeat of expr * stmt
  | Forever of stmt
  | Delay of expr * stmt option (* #n [stmt] *)
  | EventCtrl of event_spec list * stmt option (* @(specs) [stmt] *)
  | Wait of expr * stmt option
  | Trigger of string (* -> named_event *)
  | SysTask of string * expr list (* $display, $finish, ... *)
  | Null

and case_arm = { arm_id : id; patterns : expr list; arm_body : stmt option }

type direction = Input | Output | Inout
type net_kind = Wire | Reg | Integer

type range = { msb : expr; lsb : expr }

type declarator = {
  d_name : string;
  d_array : range option; (* memory dimension, e.g. reg [7:0] m [0:255] *)
  d_init : expr option; (* wire w = e / reg r = e *)
}

type item = { iid : id; it : item_desc }

and item_desc =
  | PortDecl of direction * net_kind option * range option * string list
  | NetDecl of net_kind * range option * declarator list
  | ParamDecl of bool (* localparam *) * (string * expr) list
  | ContAssign of (lvalue * expr) list
  | Always of stmt
  | Initial of stmt
  | Instance of {
      mod_name : string;
      inst_name : string;
      params : (string option * expr) list; (* #(...) overrides *)
      conns : port_conn list;
    }
  | EventDecl of string list
  | DefineStub of string (* tolerated-but-ignored compiler directives *)

and port_conn =
  | Named of string * expr option (* .port(expr) / .port() *)
  | Positional of expr

type module_decl = {
  mid : id;
  mod_id : string;
  mod_ports : string list; (* header port order *)
  items : item list;
}

type design = module_decl list

(* Id generation -- the parser resets this per parse so node numbers match
   a single design description. *)

let counter = ref 0

let fresh_id () =
  incr counter;
  !counter

let reset_ids () = counter := 0
let max_id () = !counter
let mk_e e = { eid = fresh_id (); e }
let mk_s s = { sid = fresh_id (); s }
let mk_i it = { iid = fresh_id (); it }

let string_of_unop = function
  | Uplus -> "+"
  | Uminus -> "-"
  | Unot -> "!"
  | Ubnot -> "~"
  | Uand -> "&"
  | Uor -> "|"
  | Uxor -> "^"
  | Unand -> "~&"
  | Unor -> "~|"
  | Uxnor -> "~^"

let string_of_binop = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Land -> "&&"
  | Lor -> "||"
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Bxnor -> "~^"
  | Eq -> "=="
  | Neq -> "!="
  | Ceq -> "==="
  | Cneq -> "!=="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Shl -> "<<"
  | Shr -> ">>"
