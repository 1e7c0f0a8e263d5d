(* Expression evaluation over the elaborated runtime state, computing on
   [Logic4.Packed] values through the one operator table
   ([Verilog.Ops]). Unsigned Verilog semantics; any x/z operand bit
   poisons arithmetic/relational results (see Logic4.Vec). *)

open Logic4
open Verilog.Ast

let int_width = 32

(* Abort the candidate on an absurd select or replication width (see
   [Verilog.Ast.max_vector_width]). *)
let check_width what w =
  if w > max_vector_width then
    raise
      (Runtime.Elab_error
         (Printf.sprintf "%s too wide (%d bits)" what w))

(* The same for [k] copies of a [w]-bit value, without forming a product
   that a huge count would wrap. *)
let check_repl k w =
  if not (Packed.repl_fits ~limit:max_vector_width k w) then
    raise
      (Runtime.Elab_error
         (if k > max_int / w then
            Printf.sprintf "replication too wide (%d copies of %d bits)" k w
          else Printf.sprintf "replication too wide (%d bits)" (k * w)))

let rec eval (st : Runtime.state) (sc : Runtime.scope) (e : expr) : Packed.t =
  match e.e with
  | Number v -> Packed.of_vec v
  | IntLit n -> Packed.of_int int_width n
  | String _ -> Packed.zero 1 (* strings only appear as system-task formats *)
  | Ident name -> read_ident sc name
  | Index (name, idx) -> (
      let iv = eval st sc idx in
      match Runtime.scope_find sc name with
      | Some (Bconst c) -> (
          match Packed.to_int iv with
          | None -> Packed.all_x 1
          | Some i -> Packed.of_bit (Vec.get c i))
      | Some (Bvar v) -> (
          match Packed.to_int iv with
          | None ->
              if v.v_array = None then Packed.all_x 1 else Packed.all_x v.v_width
          | Some i ->
              if v.v_array <> None then Runtime.get_array_word v i
              else (
                let si = Runtime.storage_index v i in
                if si < 0 || si >= v.v_width then Packed.all_x 1
                else Packed.select v.v_value ~msb:si ~lsb:si))
      | None -> raise (Runtime.Elab_error ("undeclared identifier " ^ name)))
  | RangeSel (name, me, le) -> (
      let v = Runtime.scope_var sc name in
      (* Bounds evaluate msb first, as in every backend. *)
      let m = Packed.to_int (eval st sc me) in
      let l = Packed.to_int (eval st sc le) in
      match (m, l) with
      | Some m, Some l ->
          let a = Runtime.storage_index v m and b = Runtime.storage_index v l in
          let hi = max a b and lo = min a b in
          check_width "part-select" (hi - lo + 1);
          Packed.select v.v_value ~msb:hi ~lsb:lo
      | _ -> Packed.all_x 1)
  | Unop (op, a) -> Verilog.Ops.unop op (eval st sc a)
  | Binop (op, a, b) -> (
      let av = eval st sc a in
      (* Short-circuit logical operators when the left side decides. *)
      match op with
      | Land when Packed.to_bool av = Some false -> Packed.of_int 1 0
      | Lor when Packed.to_bool av = Some true -> Packed.of_int 1 1
      | _ -> Verilog.Ops.binop op av (eval st sc b))
  | Cond (c, t, f) -> (
      match Packed.to_bool (eval st sc c) with
      | Some true -> eval st sc t
      | Some false -> eval st sc f
      | None ->
          (* IEEE: merge both arms bitwise; differing bits become x.
             The then-arm evaluates first, as in every backend. *)
          let tv = eval st sc t in
          let fv = eval st sc f in
          Packed.merge_x tv fv)
  | Concat es ->
      (* Verilog {a, b}: a is most significant, and evaluates first. *)
      let hd = eval st sc (List.hd es) in
      List.fold_left (fun acc x -> Packed.concat acc (eval st sc x)) hd (List.tl es)
  | Repl (n, x) -> (
      match Packed.to_int (eval st sc n) with
      | Some k when k > 0 ->
          let xv = eval st sc x in
          check_repl k (Packed.width xv);
          Packed.replicate k xv
      | _ -> Packed.all_x 1)
  | Call ("$time", _) | Call ("$stime", _) -> Packed.of_int 64 st.now
  | Call ("$random", _) ->
      (* Deterministic pseudo-random stream derived from sim state. *)
      Packed.of_int 32 ((st.steps * 1103515245 + 12345) land 0x3FFFFFFF)
  | Call ("$clog2", [ a ]) -> Verilog.Ops.clog2 (eval st sc a)
  | Call (f, _) ->
      raise (Runtime.Elab_error ("unsupported system function " ^ f))

and read_ident sc name =
  match Runtime.scope_find sc name with
  | Some (Bconst c) -> Packed.of_vec c
  | Some (Bvar v) ->
      if v.v_kind = Runtime.NamedEvent then
        raise (Runtime.Elab_error ("named event used as value: " ^ name))
      else v.v_value
  | None -> raise (Runtime.Elab_error ("undeclared identifier " ^ name))

(* Evaluate an expression to an int, for delays and replication counts. *)
let eval_int st sc e = Packed.to_int (eval st sc e)

(* Truth of a condition. *)
let eval_bool st sc e = Packed.to_bool (eval st sc e)

(* --- Assignment -------------------------------------------------------- *)

(* Resolve an lvalue into its width and store target (see
   [Runtime.target]), evaluating index expressions now: both the blocking
   and the NBA paths resolve at execution time, per IEEE. *)
let rec prepare_store (st : Runtime.state) (sc : Runtime.scope)
    (lv : lvalue) : int * Runtime.target * int * int =
  match lv with
  | LId name ->
      let v = Runtime.scope_var sc name in
      if v.v_kind = Runtime.NamedEvent then
        raise (Runtime.Elab_error ("assignment to named event " ^ name));
      (v.v_width, Runtime.Tvar v, 0, 0)
  | LIndex (name, idx) -> (
      let v = Runtime.scope_var sc name in
      match Packed.to_int (eval st sc idx) with
      | None -> (v.v_width, Runtime.Tnone, 0, 0)
      | Some i ->
          if v.v_array <> None then (v.v_width, Runtime.Tword v, i, 0)
          else
            let si = Runtime.storage_index v i in
            if si >= 0 && si < v.v_width then (1, Runtime.Tbits v, si, si)
            else (1, Runtime.Tnone, 0, 0))
  | LRange (name, me, le) -> (
      let v = Runtime.scope_var sc name in
      let m = Packed.to_int (eval st sc me) in
      let l = Packed.to_int (eval st sc le) in
      match (m, l) with
      | Some m, Some l ->
          let a = Runtime.storage_index v m and b = Runtime.storage_index v l in
          let hi = max a b and lo = min a b in
          check_width "part-select" (hi - lo + 1);
          (hi - lo + 1, Runtime.Tbits v, lo, hi)
      | _ -> (v.v_width, Runtime.Tnone, 0, 0))
  | LConcat lvs ->
      let parts = List.map (prepare_store st sc) lvs in
      let total = List.fold_left (fun acc (w, _, _, _) -> acc + w) 0 parts in
      (total, Runtime.concat_target st parts, 0, 0)

(* Count-only attribution: one bump per committed assignment, charged
   under whatever process/region frame is open. No clock read — at this
   frequency a timestamp would dominate the measurement. *)
let prof_assign = Obs.Profile.site "eval.assign"

let assign st sc lv value =
  let _, target, lo, hi = prepare_store st sc lv in
  if st.Runtime.obs_profile then Obs.Profile.bump prof_assign;
  Runtime.store st target ~lo ~hi value
