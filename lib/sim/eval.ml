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

(* The operator table, shared with the compiled backend: each AST
   operator maps to its plane operator ([Packed.Planes], which the
   compiled backend runs on preallocated cells) and to the boxed wrapper
   over it; [pick] chooses the view.  The short-circuit exits of
   [Land]/[Lor] live in the callers. *)
and unop_with : 'a. (Packed.Planes.op1 -> (Packed.t -> Packed.t) -> 'a) -> unop -> 'a =
 fun pick op ->
  let module P = Packed.Planes in
  match op with
  | Uplus -> pick P.set (fun v -> v)
  | Uminus -> pick P.neg Packed.neg
  | Unot -> pick P.log_not Packed.log_not
  | Ubnot -> pick P.lognot Packed.lognot
  | Uand -> pick P.reduce_and Packed.reduce_and
  | Uor -> pick P.reduce_or Packed.reduce_or
  | Uxor -> pick P.reduce_xor Packed.reduce_xor
  | Unand -> pick P.reduce_nand (fun v -> Packed.lognot (Packed.reduce_and v))
  | Unor -> pick P.reduce_nor (fun v -> Packed.lognot (Packed.reduce_or v))
  | Uxnor -> pick P.reduce_xnor (fun v -> Packed.lognot (Packed.reduce_xor v))

and binop_with :
      'a. (Packed.Planes.op2 -> (Packed.t -> Packed.t -> Packed.t) -> 'a) -> binop -> 'a =
 fun pick op ->
  let module P = Packed.Planes in
  match op with
  | Add -> pick P.add Packed.add
  | Sub -> pick P.sub Packed.sub
  | Mul -> pick P.mul Packed.mul
  | Div -> pick P.div Packed.div
  | Mod -> pick P.rem Packed.rem
  | Land -> pick P.log_and Packed.log_and
  | Lor -> pick P.log_or Packed.log_or
  | Band -> pick P.logand Packed.logand
  | Bor -> pick P.logor Packed.logor
  | Bxor -> pick P.logxor Packed.logxor
  | Bxnor -> pick P.logxnor (fun x y -> Packed.lognot (Packed.logxor x y))
  | Eq -> pick P.eq Packed.eq
  | Neq -> pick P.neq Packed.neq
  | Ceq -> pick P.case_eq Packed.case_eq
  | Cneq -> pick P.case_neq Packed.case_neq
  | Lt -> pick P.lt Packed.lt
  | Le -> pick P.le Packed.le
  | Gt -> pick P.gt Packed.gt
  | Ge -> pick P.ge Packed.ge
  | Shl ->
      pick
        (fun d xw xa xb _ ya yb -> P.shift_left d xw xa xb (P.to_index ya yb))
        Packed.shift_left
  | Shr ->
      pick
        (fun d xw xa xb _ ya yb -> P.shift_right d xw xa xb (P.to_index ya yb))
        Packed.shift_right

and unop op = unop_with (fun _ boxed -> boxed) op
and binop op = binop_with (fun _ boxed -> boxed) op

(* Does case label [pv] match subject [sv]? Bits compare 4-valued, with
   z (casez) or x and z (casex) on either side as wildcards; the narrower
   side is zero-extended. Shared by both backends; [case_matches_planes]
   is the narrow case on planes. *)
let case_matches_planes kind sa sb pa pb =
  let wild_plane a b =
    match kind with Case -> 0 | Casez -> lnot a land b | Casex -> b
  in
  (* Planes are zero above each width, so zero-extension is free. *)
  let wild = wild_plane sa sb lor wild_plane pa pb in
  ((sa lxor pa) lor (sb lxor pb)) land lnot wild = 0

let case_matches kind (sv : Packed.t) (pv : Packed.t) =
  match (sv, pv) with
  | S p, S q -> case_matches_planes kind p.a p.b q.a q.b
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
