(* Expression evaluation over the elaborated runtime state. Unsigned
   Verilog semantics; any x/z operand bit poisons arithmetic/relational
   results (see Logic4.Vec). *)

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

let rec eval (st : Runtime.state) (sc : Runtime.scope) (e : expr) : Vec.t =
  match e.e with
  | Number v -> v
  | IntLit n -> Vec.of_int int_width n
  | String _ -> Vec.zero 1 (* strings only appear as system-task formats *)
  | Ident name -> read_ident sc name
  | Index (name, idx) -> (
      let iv = eval st sc idx in
      match Runtime.scope_find sc name with
      | Some (Bconst c) -> (
          match Vec.to_int iv with
          | None -> Vec.all_x 1
          | Some i -> [ Vec.get c i ] |> fun l -> Vec.of_bits (Array.of_list l))
      | Some (Bvar v) -> (
          match Vec.to_int iv with
          | None -> if v.v_array = None then Vec.all_x 1 else Vec.all_x v.v_width
          | Some i ->
              if v.v_array <> None then Runtime.get_array_word v i
              else (
                let si = Runtime.storage_index v i in
                if si < 0 || si >= v.v_width then Vec.all_x 1
                else Vec.of_bits [| Vec.get v.v_value si |]))
      | None -> raise (Runtime.Elab_error ("undeclared identifier " ^ name)))
  | RangeSel (name, me, le) -> (
      let v = Runtime.scope_var sc name in
      match (Vec.to_int (eval st sc me), Vec.to_int (eval st sc le)) with
      | Some m, Some l ->
          let a = Runtime.storage_index v m and b = Runtime.storage_index v l in
          let hi = max a b and lo = min a b in
          check_width "part-select" (hi - lo + 1);
          Vec.select v.v_value ~msb:hi ~lsb:lo
      | _ -> Vec.all_x 1)
  | Unop (op, a) -> (
      let av = eval st sc a in
      match op with
      | Uplus -> av
      | Uminus -> Vec.neg av
      | Unot -> Vec.log_not av
      | Ubnot -> Vec.lognot av
      | Uand -> Vec.reduce_and av
      | Uor -> Vec.reduce_or av
      | Uxor -> Vec.reduce_xor av
      | Unand -> Vec.lognot (Vec.reduce_and av)
      | Unor -> Vec.lognot (Vec.reduce_or av)
      | Uxnor -> Vec.lognot (Vec.reduce_xor av))
  | Binop (op, a, b) -> (
      let av = eval st sc a in
      (* Short-circuit logical operators when the left side decides. *)
      match op with
      | Land when Vec.to_bool av = Some false -> Vec.of_int 1 0
      | Lor when Vec.to_bool av = Some true -> Vec.of_int 1 1
      | _ -> (
          let bv = eval st sc b in
          match op with
          | Add -> Vec.add av bv
          | Sub -> Vec.sub av bv
          | Mul -> Vec.mul av bv
          | Div -> Vec.div av bv
          | Mod -> Vec.rem av bv
          | Land -> Vec.log_and av bv
          | Lor -> Vec.log_or av bv
          | Band -> Vec.logand av bv
          | Bor -> Vec.logor av bv
          | Bxor -> Vec.logxor av bv
          | Bxnor -> Vec.lognot (Vec.logxor av bv)
          | Eq -> Vec.eq av bv
          | Neq -> Vec.neq av bv
          | Ceq -> Vec.case_eq av bv
          | Cneq -> Vec.case_neq av bv
          | Lt -> Vec.lt av bv
          | Le -> Vec.le av bv
          | Gt -> Vec.gt av bv
          | Ge -> Vec.ge av bv
          | Shl -> Vec.shift_left av bv
          | Shr -> Vec.shift_right av bv))
  | Cond (c, t, f) -> (
      match Vec.to_bool (eval st sc c) with
      | Some true -> eval st sc t
      | Some false -> eval st sc f
      | None ->
          (* IEEE: merge both arms bitwise; differing bits become x. *)
          let tv = eval st sc t and fv = eval st sc f in
          let w = max (Vec.width tv) (Vec.width fv) in
          let merged =
            Array.init w (fun i ->
                let a = Vec.get tv i and b = Vec.get fv i in
                if Bit.equal a b then a else Bit.X)
          in
          Vec.of_bits merged)
  | Concat es ->
      (* Verilog {a, b}: a is most significant. *)
      List.fold_left
        (fun acc x -> Vec.concat acc (eval st sc x))
        (eval st sc (List.hd es))
        (List.tl es)
  | Repl (n, x) -> (
      match Vec.to_int (eval st sc n) with
      | Some k when k > 0 ->
          let xv = eval st sc x in
          check_width "replication" (k * Vec.width xv);
          Vec.replicate k xv
      | _ -> Vec.all_x 1)
  | Call ("$time", _) | Call ("$stime", _) -> Vec.of_int 64 st.now
  | Call ("$random", _) ->
      (* Deterministic pseudo-random stream derived from sim state. *)
      Vec.of_int 32 ((st.steps * 1103515245 + 12345) land 0x3FFFFFFF)
  | Call (f, _) ->
      raise (Runtime.Elab_error ("unsupported system function " ^ f))

and read_ident sc name =
  match Runtime.scope_find sc name with
  | Some (Bconst c) -> c
  | Some (Bvar v) ->
      if v.v_kind = Runtime.NamedEvent then
        raise (Runtime.Elab_error ("named event used as value: " ^ name))
      else v.v_value
  | None -> raise (Runtime.Elab_error ("undeclared identifier " ^ name))

(* Evaluate an expression to an int, for delays and replication counts. *)
let eval_int st sc e = Vec.to_int (eval st sc e)

(* Truth of a condition. *)
let eval_bool st sc e = Vec.to_bool (eval st sc e)

(* --- Assignment -------------------------------------------------------- *)

(* Resolve an lvalue into its write targets. Returns a closure that, given
   a value, performs the store (used by both blocking and NBA paths so the
   index expressions are evaluated at scheduling time, per IEEE). *)
let rec prepare_store (st : Runtime.state) (sc : Runtime.scope)
    (lv : lvalue) : int * (Vec.t -> unit) =
  match lv with
  | LId name ->
      let v = Runtime.scope_var sc name in
      if v.v_kind = Runtime.NamedEvent then
        raise (Runtime.Elab_error ("assignment to named event " ^ name));
      (v.v_width, fun value -> Runtime.set_var st v value)
  | LIndex (name, idx) -> (
      let v = Runtime.scope_var sc name in
      match Vec.to_int (eval st sc idx) with
      | None -> (v.v_width, fun _ -> ())
      | Some i ->
          if v.v_array <> None then
            (v.v_width, fun value -> Runtime.set_array_word st v i value)
          else (
            let si = Runtime.storage_index v i in
            ( 1,
              fun value ->
                if si >= 0 && si < v.v_width then
                  Runtime.set_var st v
                    (Vec.insert ~into:v.v_value ~msb:si ~lsb:si value) )))
  | LRange (name, me, le) -> (
      let v = Runtime.scope_var sc name in
      match (Vec.to_int (eval st sc me), Vec.to_int (eval st sc le)) with
      | Some m, Some l ->
          let a = Runtime.storage_index v m and b = Runtime.storage_index v l in
          let hi = max a b and lo = min a b in
          check_width "part-select" (hi - lo + 1);
          ( hi - lo + 1,
            fun value ->
              Runtime.set_var st v
                (Vec.insert ~into:v.v_value ~msb:hi ~lsb:lo value) )
      | _ -> (v.v_width, fun _ -> ()))
  | LConcat lvs ->
      (* {a, b} = v assigns the high part to a, the low part to b. *)
      let parts = List.map (prepare_store st sc) lvs in
      let total = List.fold_left (fun acc (w, _) -> acc + w) 0 parts in
      ( total,
        fun value ->
          let value = Vec.resize total value in
          (* Parts are listed most-significant first; peel each part's slice
             off the top of the remaining range. *)
          let rec split hi = function
            | [] -> ()
            | (w, store) :: rest ->
                store (Vec.select value ~msb:hi ~lsb:(hi - w + 1));
                split (hi - w) rest
          in
          split (total - 1) parts )

(* Count-only attribution: one bump per committed assignment, charged
   under whatever process/region frame is open. No clock read — at this
   frequency a timestamp would dominate the measurement. *)
let prof_assign = Obs.Profile.site "eval.assign"

let assign st sc lv value =
  let w, store = prepare_store st sc lv in
  if st.Runtime.obs_profile then Obs.Profile.bump prof_assign;
  store (Vec.resize w value)
