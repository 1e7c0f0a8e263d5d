(* Packed 4-state vectors: two bitplanes in native ints.

   The simulator stores every variable and evaluates every expression over
   this representation; [Vec.t] bit arrays remain the wide fallback and
   the trace/display format.  A value of width <= 61 is
   stored as two machine integers (bitplanes): plane [a] holds the value
   bits, plane [b] the unknown bits.  Per bit position:

     (a,b) = (0,0) -> V0    (1,0) -> V1    (1,1) -> X    (0,1) -> Z

   With [b = 0] the vector is fully defined and arithmetic collapses to
   plain int ops.  Wider values (and any op whose fast path does not apply)
   round-trip through [Vec], so every operation here is observationally
   identical to its [Vec] counterpart -- the fuzz suite pins that.

   The 61-bit cutoff leaves headroom so add/sub on [a] planes can never
   overflow OCaml's 63-bit native ints before masking. *)

type t = S of { w : int; a : int; b : int } | V of Vec.t

let max_packed_width = 61
let mask w = (1 lsl w) - 1

let width = function S { w; _ } -> w | V v -> Vec.width v

let of_vec v =
  let w = Vec.width v in
  if w > max_packed_width then V v
  else begin
    let a = ref 0 and b = ref 0 in
    for i = 0 to w - 1 do
      match Vec.get v i with
      | Bit.V0 -> ()
      | Bit.V1 -> a := !a lor (1 lsl i)
      | Bit.X ->
          a := !a lor (1 lsl i);
          b := !b lor (1 lsl i)
      | Bit.Z -> b := !b lor (1 lsl i)
    done;
    S { w; a = !a; b = !b }
  end

let to_vec = function
  | V v -> v
  | S { w; a; b } ->
      Vec.of_bits
        (Array.init w (fun i ->
             match ((a lsr i) land 1, (b lsr i) land 1) with
             | 0, 0 -> Bit.V0
             | 1, 0 -> Bit.V1
             | 1, _ -> Bit.X
             | _ -> Bit.Z))

let zero w = if w <= max_packed_width then S { w; a = 0; b = 0 } else V (Vec.zero w)

let all_x w =
  if w <= max_packed_width then
    let m = mask w in
    S { w; a = m; b = m }
  else V (Vec.all_x w)

let of_int w n =
  if n < 0 then invalid_arg "Packed.of_int";
  if w <= max_packed_width then S { w; a = n land mask w; b = 0 }
  else V (Vec.of_int w n)

let get p i =
  match p with
  | V v -> Vec.get v i
  | S { w; a; b } ->
      if i < 0 || i >= w then Bit.V0
      else begin
        match ((a lsr i) land 1, (b lsr i) land 1) with
        | 0, 0 -> Bit.V0
        | 1, 0 -> Bit.V1
        | 1, _ -> Bit.X
        | _ -> Bit.Z
      end

let equal x y =
  match (x, y) with
  | S p, S q -> p.w = q.w && p.a = q.a && p.b = q.b
  | _ -> Vec.equal (to_vec x) (to_vec y)

let resize w p =
  match p with
  | _ when width p = w -> p
  | S s when w <= max_packed_width ->
      (* Truncate or V0-extend, exactly like Vec.resize. *)
      S { w; a = s.a land mask w; b = s.b land mask w }
  | _ when w <= max_packed_width ->
      (* A wide value truncated to a packable width re-enters the packed
         representation — [insert] relies on this when writing a wide
         source into a narrow slice. *)
      of_vec (Vec.resize w (to_vec p))
  | _ -> V (Vec.resize w (to_vec p))

(* Mirrors Vec.to_bool: any defined 1 bit wins over x/z. *)
let to_bool = function
  | V v -> Vec.to_bool v
  | S { a; b; _ } ->
      if a land lnot b <> 0 then Some true
      else if b <> 0 then None
      else Some false

let to_int = function
  | V v -> Vec.to_int v
  | S { a; b; _ } -> if b <> 0 then None else Some a

(* --- Arithmetic ------------------------------------------------------- *)

let via_vec2 f x y = of_vec (f (to_vec x) (to_vec y))
let via_vec1 f x = of_vec (f (to_vec x))

let arith2 fast vecop x y =
  match (x, y) with
  | S p, S q ->
      let w = max p.w q.w in
      if p.b lor q.b <> 0 then all_x w else S { w; a = fast p.a q.a land mask w; b = 0 }
  | _ -> via_vec2 vecop x y

let add x y = arith2 ( + ) Vec.add x y
let sub x y = arith2 ( - ) Vec.sub x y
let mul x y = arith2 ( * ) Vec.mul x y

let neg = function
  | S { w; a; b } ->
      if b <> 0 then all_x w else S { w; a = -a land mask w; b = 0 }
  | p -> via_vec1 Vec.neg p

let divmod fast vecop x y =
  match (x, y) with
  | S p, S q ->
      let w = max p.w q.w in
      (* Vec.divmod yields all-x when either side has x/z or the divisor is
         not definitely true (i.e. zero). *)
      if p.b lor q.b <> 0 || q.a = 0 then all_x w
      else S { w; a = fast p.a q.a land mask w; b = 0 }
  | _ -> via_vec2 vecop x y

let div x y = divmod ( / ) Vec.div x y
let rem x y = divmod (fun a b -> a mod b) Vec.rem x y

(* --- Bitwise ---------------------------------------------------------- *)

(* Plane helpers for an operand zero-extended to the result width: bits
   beyond the operand's own width read as V0, which the (a,b) = (0,0)
   encoding already provides. *)

let logand x y =
  match (x, y) with
  | S p, S q ->
      let w = max p.w q.w in
      let m = mask w in
      let one_x = p.a land lnot p.b and one_y = q.a land lnot q.b in
      let zero_x = lnot p.a land lnot p.b and zero_y = lnot q.a land lnot q.b in
      let res_one = one_x land one_y in
      let res_zero = (zero_x lor zero_y) land m in
      let res_b = m land lnot (res_one lor res_zero) in
      S { w; a = res_one lor res_b; b = res_b }
  | _ -> via_vec2 Vec.logand x y

let logor x y =
  match (x, y) with
  | S p, S q ->
      let w = max p.w q.w in
      let m = mask w in
      let one_x = p.a land lnot p.b and one_y = q.a land lnot q.b in
      let zero_x = lnot p.a land lnot p.b and zero_y = lnot q.a land lnot q.b in
      let res_one = one_x lor one_y in
      let res_zero = zero_x land zero_y land m in
      let res_b = m land lnot (res_one lor res_zero) in
      S { w; a = res_one lor res_b; b = res_b }
  | _ -> via_vec2 Vec.logor x y

let logxor x y =
  match (x, y) with
  | S p, S q ->
      let w = max p.w q.w in
      let m = mask w in
      let xz = (p.b lor q.b) land m in
      S { w; a = ((p.a lxor q.a) land lnot xz land m) lor xz; b = xz }
  | _ -> via_vec2 Vec.logxor x y

let lognot = function
  | S { w; a; b } ->
      let m = mask w in
      S { w; a = (lnot a land lnot b land m) lor b; b }
  | p -> via_vec1 Vec.lognot p

(* --- Reductions (1-bit results) --------------------------------------- *)

let of_bit bit =
  match bit with
  | Bit.V0 -> S { w = 1; a = 0; b = 0 }
  | Bit.V1 -> S { w = 1; a = 1; b = 0 }
  | Bit.X -> S { w = 1; a = 1; b = 1 }
  | Bit.Z -> S { w = 1; a = 0; b = 1 }

let reduce_and = function
  | S { w; a; b } ->
      let m = mask w in
      (* A definite 0 anywhere dominates; otherwise any x/z poisons. *)
      if lnot a land lnot b land m <> 0 then of_bit Bit.V0
      else if b <> 0 then of_bit Bit.X
      else of_bit Bit.V1
  | p -> of_vec (Vec.reduce_and (to_vec p))

let reduce_or = function
  | S { a; b; _ } ->
      if a land lnot b <> 0 then of_bit Bit.V1
      else if b <> 0 then of_bit Bit.X
      else of_bit Bit.V0
  | p -> of_vec (Vec.reduce_or (to_vec p))

let parity n =
  let n = n lxor (n lsr 32) in
  let n = n lxor (n lsr 16) in
  let n = n lxor (n lsr 8) in
  let n = n lxor (n lsr 4) in
  let n = n lxor (n lsr 2) in
  let n = n lxor (n lsr 1) in
  n land 1

let reduce_xor = function
  | S { a; b; _ } ->
      if b <> 0 then of_bit Bit.X
      else if parity a = 1 then of_bit Bit.V1
      else of_bit Bit.V0
  | p -> of_vec (Vec.reduce_xor (to_vec p))

(* --- Logical ops ------------------------------------------------------ *)

let of_bool3 = function
  | Some true -> of_bit Bit.V1
  | Some false -> of_bit Bit.V0
  | None -> of_bit Bit.X

let log_and x y =
  match (to_bool x, to_bool y) with
  | Some false, _ | _, Some false -> of_bit Bit.V0
  | Some true, Some true -> of_bit Bit.V1
  | _ -> of_bit Bit.X

let log_or x y =
  match (to_bool x, to_bool y) with
  | Some true, _ | _, Some true -> of_bit Bit.V1
  | Some false, Some false -> of_bit Bit.V0
  | _ -> of_bit Bit.X

let log_not x =
  match to_bool x with
  | Some bb -> of_bool3 (Some (not bb))
  | None -> of_bit Bit.X

(* --- Comparisons (1-bit results) -------------------------------------- *)

let cmp2 fast vecop x y =
  match (x, y) with
  | S p, S q ->
      if p.b lor q.b <> 0 then of_bit Bit.X
      else if fast p.a q.a then of_bit Bit.V1
      else of_bit Bit.V0
  | _ -> of_vec (vecop (to_vec x) (to_vec y))

let eq x y = cmp2 ( = ) Vec.eq x y
let neq x y = cmp2 ( <> ) Vec.neq x y
let lt x y = cmp2 ( < ) Vec.lt x y
let le x y = cmp2 ( <= ) Vec.le x y
let gt x y = cmp2 ( > ) Vec.gt x y
let ge x y = cmp2 ( >= ) Vec.ge x y

let case_eq x y =
  match (x, y) with
  | S p, S q -> if p.a = q.a && p.b = q.b then of_bit Bit.V1 else of_bit Bit.V0
  | _ -> of_vec (Vec.case_eq (to_vec x) (to_vec y))

let case_neq x y =
  match (x, y) with
  | S p, S q -> if p.a = q.a && p.b = q.b then of_bit Bit.V0 else of_bit Bit.V1
  | _ -> of_vec (Vec.case_neq (to_vec x) (to_vec y))

(* --- Shifts (width of the left operand is preserved) ------------------ *)

let shift_left x amount =
  match x with
  | S { w; a; b } -> begin
      match to_int amount with
      | None -> all_x w
      | Some n ->
          if n >= w then zero w
          else S { w; a = (a lsl n) land mask w; b = (b lsl n) land mask w }
    end
  | V v -> V (Vec.shift_left v (to_vec amount))

let shift_right x amount =
  match x with
  | S { w; a; b } -> begin
      match to_int amount with
      | None -> all_x w
      | Some n -> if n >= w then zero w else S { w; a = a lsr n; b = b lsr n }
    end
  | V v -> V (Vec.shift_right v (to_vec amount))

(* --- Structural ops --------------------------------------------------- *)

(* [concat hi lo], matching Vec.concat's argument order. *)
let concat hi lo =
  match (hi, lo) with
  | S p, S q when p.w + q.w <= max_packed_width ->
      S { w = p.w + q.w; a = q.a lor (p.a lsl q.w); b = q.b lor (p.b lsl q.w) }
  | _ -> of_vec (Vec.concat (to_vec hi) (to_vec lo))

let replicate k p =
  if k <= 0 then invalid_arg "Packed.replicate";
  (* A wide result is built once: repeated [concat] through [Vec] would
     copy quadratically in [k]. *)
  if k * width p > max_packed_width then of_vec (Vec.replicate k (to_vec p))
  else
    let rec go acc n = if n = 0 then acc else go (concat acc p) (n - 1) in
    go p (k - 1)

let select p ~msb ~lsb =
  let wr = msb - lsb + 1 in
  match p with
  | S { w; a; b } when wr >= 1 && wr <= max_packed_width && lsb >= 0 && msb < w ->
      S { w = wr; a = (a lsr lsb) land mask wr; b = (b lsr lsb) land mask wr }
  | _ -> of_vec (Vec.select (to_vec p) ~msb ~lsb)

let insert ~into ~msb ~lsb src =
  match into with
  | S { w; a; b } when lsb >= 0 && msb < w && msb >= lsb ->
      let ws = msb - lsb + 1 in
      let m = mask ws in
      let sa, sb =
        match resize ws src with
        | S s -> (s.a, s.b)
        | V _ -> assert false (* ws <= w <= max_packed_width *)
      in
      let hole = lnot (m lsl lsb) in
      S { w; a = (a land hole) lor (sa lsl lsb); b = (b land hole) lor (sb lsl lsb) }
  | _ -> of_vec (Vec.insert ~into:(to_vec into) ~msb ~lsb (to_vec src))

(* Merge for conditionals with an unknown condition: bitwise agreement at
   the wider width, disagreeing bits become X.  Mirrors Sim.Eval's Cond. *)
let merge_x x y =
  match (x, y) with
  | S p, S q ->
      let w = max p.w q.w in
      let m = mask w in
      let diff = ((p.a lxor q.a) lor (p.b lxor q.b)) land m in
      S { w; a = ((p.a land lnot diff) lor diff) land m; b = (p.b lor diff) land m }
  | _ ->
      let vx = to_vec x and vy = to_vec y in
      let w = max (Vec.width vx) (Vec.width vy) in
      of_vec
        (Vec.of_bits
           (Array.init w (fun i ->
                let bx = Vec.get vx i and by = Vec.get vy i in
                if Bit.equal bx by then bx else Bit.X)))

let has_xz = function S { b; _ } -> b <> 0 | V v -> Vec.has_xz v

let pp fmt p = Vec.pp fmt (to_vec p)
