(* The AST operators on [Logic4.Packed] values: the one operator table.
   The event engine evaluates through it, the compiled backend lowers
   through it, and [Dataflow] folds fully known operands through it, so a
   constant the static layer proves is the value the simulator computes.

   Each operator maps to its plane operator ([Packed.Planes], which the
   compiled backend runs on preallocated cells) and to the boxed wrapper
   over it; [pick] chooses the view. The short-circuit exits of
   [Land]/[Lor] live in the callers. *)

open Ast
module Bit = Logic4.Bit
module Packed = Logic4.Packed

let unop_with : 'a. (Packed.Planes.op1 -> (Packed.t -> Packed.t) -> 'a) -> unop -> 'a =
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

let binop_with :
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

let unop op = unop_with (fun _ boxed -> boxed) op
let binop op = binop_with (fun _ boxed -> boxed) op

(* $clog2 of a value, a 32-bit integer (IEEE 1364-2005 17.11.1): the
   ceiling of log2 of the unsigned value, 0 for 0 and 1, and all-x on
   any x/z bit. *)
let clog2 v =
  if Packed.has_xz v then Packed.all_x 32
  else begin
    let top = ref (-1) and ones = ref 0 in
    for i = 0 to Packed.width v - 1 do
      if Bit.equal (Packed.get v i) Bit.V1 then begin
        top := i;
        incr ones
      end
    done;
    Packed.of_int 32 (if !ones <= 1 then max !top 0 else !top + 1)
  end

(* Does case label [pv] match subject [sv]? Bits compare 4-valued, with
   z (casez) or x and z (casex) on either side as wildcards; the narrower
   side is zero-extended. [case_matches_planes] is the narrow case on
   planes, for the compiled backend's cells. *)
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
