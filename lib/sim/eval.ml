(* Expression evaluation over the elaborated runtime state, computing on
   [Logic4.Packed] values. Unsigned Verilog semantics; any x/z operand bit
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
      match (Packed.to_int (eval st sc me), Packed.to_int (eval st sc le)) with
      | Some m, Some l ->
          let a = Runtime.storage_index v m and b = Runtime.storage_index v l in
          let hi = max a b and lo = min a b in
          check_width "part-select" (hi - lo + 1);
          Packed.select v.v_value ~msb:hi ~lsb:lo
      | _ -> Packed.all_x 1)
  | Unop (op, a) -> unop op (eval st sc a)
  | Binop (op, a, b) -> (
      let av = eval st sc a in
      (* Short-circuit logical operators when the left side decides. *)
      match op with
      | Land when Packed.to_bool av = Some false -> Packed.of_int 1 0
      | Lor when Packed.to_bool av = Some true -> Packed.of_int 1 1
      | _ -> binop op av (eval st sc b))
  | Cond (c, t, f) -> (
      match Packed.to_bool (eval st sc c) with
      | Some true -> eval st sc t
      | Some false -> eval st sc f
      | None ->
          (* IEEE: merge both arms bitwise; differing bits become x. *)
          Packed.merge_x (eval st sc t) (eval st sc f))
  | Concat es ->
      (* Verilog {a, b}: a is most significant. *)
      List.fold_left
        (fun acc x -> Packed.concat acc (eval st sc x))
        (eval st sc (List.hd es))
        (List.tl es)
  | Repl (n, x) -> (
      match Packed.to_int (eval st sc n) with
      | Some k when k > 0 ->
          let xv = eval st sc x in
          check_width "replication" (k * Packed.width xv);
          Packed.replicate k xv
      | _ -> Packed.all_x 1)
  | Call ("$time", _) | Call ("$stime", _) -> Packed.of_int 64 st.now
  | Call ("$random", _) ->
      (* Deterministic pseudo-random stream derived from sim state. *)
      Packed.of_int 32 ((st.steps * 1103515245 + 12345) land 0x3FFFFFFF)
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

(* Operator tables, shared with the compiled backend. The short-circuit
   exits of [Land]/[Lor] live in the callers. *)
and unop op : Packed.t -> Packed.t =
  match op with
  | Uplus -> fun v -> v
  | Uminus -> Packed.neg
  | Unot -> Packed.log_not
  | Ubnot -> Packed.lognot
  | Uand -> Packed.reduce_and
  | Uor -> Packed.reduce_or
  | Uxor -> Packed.reduce_xor
  | Unand -> fun v -> Packed.lognot (Packed.reduce_and v)
  | Unor -> fun v -> Packed.lognot (Packed.reduce_or v)
  | Uxnor -> fun v -> Packed.lognot (Packed.reduce_xor v)

and binop op : Packed.t -> Packed.t -> Packed.t =
  match op with
  | Add -> Packed.add
  | Sub -> Packed.sub
  | Mul -> Packed.mul
  | Div -> Packed.div
  | Mod -> Packed.rem
  | Land -> Packed.log_and
  | Lor -> Packed.log_or
  | Band -> Packed.logand
  | Bor -> Packed.logor
  | Bxor -> Packed.logxor
  | Bxnor -> fun x y -> Packed.lognot (Packed.logxor x y)
  | Eq -> Packed.eq
  | Neq -> Packed.neq
  | Ceq -> Packed.case_eq
  | Cneq -> Packed.case_neq
  | Lt -> Packed.lt
  | Le -> Packed.le
  | Gt -> Packed.gt
  | Ge -> Packed.ge
  | Shl -> Packed.shift_left
  | Shr -> Packed.shift_right

(* Does case label [pv] match subject [sv]? Bits compare 4-valued, with
   z (casez) or x and z (casex) on either side as wildcards; the narrower
   side is zero-extended. Shared by both backends. *)
let case_matches kind (sv : Packed.t) (pv : Packed.t) =
  let wild_plane a b =
    match kind with Case -> 0 | Casez -> lnot a land b | Casex -> b
  in
  match (sv, pv) with
  | S p, S q ->
      (* Planes are zero above each width, so zero-extension is free. *)
      let wild = wild_plane p.a p.b lor wild_plane q.a q.b in
      ((p.a lxor q.a) lor (p.b lxor q.b)) land lnot wild = 0
  | _ ->
      let wild (b : Bit.t) =
        match kind with
        | Case -> false
        | Casez -> b = Bit.Z
        | Casex -> b = Bit.X || b = Bit.Z
      in
      let w = max (Packed.width sv) (Packed.width pv) in
      let rec go i =
        i >= w
        ||
        let a = Packed.get sv i and b = Packed.get pv i in
        (wild a || wild b || Bit.equal a b) && go (i + 1)
      in
      go 0

(* Evaluate an expression to an int, for delays and replication counts. *)
let eval_int st sc e = Packed.to_int (eval st sc e)

(* Truth of a condition. *)
let eval_bool st sc e = Packed.to_bool (eval st sc e)

(* --- Assignment -------------------------------------------------------- *)

(* Resolve an lvalue into its write targets. Returns a closure that, given
   a value, performs the store (used by both blocking and NBA paths so the
   index expressions are evaluated at scheduling time, per IEEE). *)
let rec prepare_store (st : Runtime.state) (sc : Runtime.scope)
    (lv : lvalue) : int * (Packed.t -> unit) =
  match lv with
  | LId name ->
      let v = Runtime.scope_var sc name in
      if v.v_kind = Runtime.NamedEvent then
        raise (Runtime.Elab_error ("assignment to named event " ^ name));
      (v.v_width, fun value -> Runtime.set_var st v value)
  | LIndex (name, idx) -> (
      let v = Runtime.scope_var sc name in
      match Packed.to_int (eval st sc idx) with
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
                    (Packed.insert ~into:v.v_value ~msb:si ~lsb:si value) )))
  | LRange (name, me, le) -> (
      let v = Runtime.scope_var sc name in
      match (Packed.to_int (eval st sc me), Packed.to_int (eval st sc le)) with
      | Some m, Some l ->
          let a = Runtime.storage_index v m and b = Runtime.storage_index v l in
          let hi = max a b and lo = min a b in
          check_width "part-select" (hi - lo + 1);
          ( hi - lo + 1,
            fun value ->
              Runtime.set_var st v
                (Packed.insert ~into:v.v_value ~msb:hi ~lsb:lo value) )
      | _ -> (v.v_width, fun _ -> ()))
  | LConcat lvs ->
      (* {a, b} = v assigns the high part to a, the low part to b. *)
      let parts = List.map (prepare_store st sc) lvs in
      let total = List.fold_left (fun acc (w, _) -> acc + w) 0 parts in
      ( total,
        fun value ->
          let value = Packed.resize total value in
          (* Parts are listed most-significant first; peel each part's slice
             off the top of the remaining range. *)
          let rec split hi = function
            | [] -> ()
            | (w, store) :: rest ->
                store (Packed.select value ~msb:hi ~lsb:(hi - w + 1));
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
  store (Packed.resize w value)
