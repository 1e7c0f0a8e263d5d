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

let repl_fits ~limit k w = w = 0 || k <= limit / w
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

let of_planes w ~a ~b =
  if w < 0 || w > max_packed_width then invalid_arg "Packed.of_planes";
  let m = mask w in
  S { w; a = a land m; b = b land m }

(* The planes as defined values, and back: see the mli. *)
let to_plane_values = function
  | S { w; a; b } -> (S { w; a; b = 0 }, S { w; a = b; b = 0 })
  | V v ->
      let plane f =
        let bit x = if f x then Bit.V1 else Bit.V0 in
        V (Vec.of_bits (Array.map bit (Vec.to_bits v)))
      in
      ( plane (fun x -> x = Bit.V1 || x = Bit.X),
        plane (fun x -> x = Bit.X || x = Bit.Z) )

let of_plane_values pa pb =
  match (pa, pb) with
  | S p, S q -> S { w = p.w; a = p.a; b = q.a }
  | _ ->
      let va = to_vec pa and vb = to_vec pb in
      V
        (Vec.of_bits
           (Array.init (Vec.width va) (fun i ->
                match (Vec.get va i, Vec.get vb i) with
                | Bit.V0, Bit.V0 -> Bit.V0
                | Bit.V1, Bit.V0 -> Bit.V1
                | Bit.V1, _ -> Bit.X
                | _ -> Bit.Z)))

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

let to_int = function
  | V v -> Vec.to_int v
  | S { a; b; _ } -> if b <> 0 then None else Some a

(* --- Plane operators ---------------------------------------------------

   The one implementation of every operator on narrow values: each reads
   its operands as (width, a, b) triples and writes the result into a
   caller-owned cell, so a compiled expression that keeps its result in a
   preallocated cell evaluates without allocating.  The boxed operators
   below are thin wrappers that run these on [S] operands and fall back to
   [Vec] otherwise.  Every result is canonical: planes masked to its
   width. *)

type cell = { mutable cw : int; mutable ca : int; mutable cb : int }

module Planes = struct
  type op1 = cell -> int -> int -> int -> unit
  type op2 = cell -> int -> int -> int -> int -> int -> int -> unit

  let make w = { cw = w; ca = 0; cb = 0 }

  let set d w a b =
    d.cw <- w;
    d.ca <- a;
    d.cb <- b

  let set_x d w =
    let m = mask w in
    set d w m m

  let load d = function
    | S { w; a; b } -> set d w a b
    | V _ -> invalid_arg "Packed.Planes.load: wide value"

  (* The 1-bit results are shared constants, as [of_bit] returns. *)
  let bit0 = S { w = 1; a = 0; b = 0 }
  let bit1 = S { w = 1; a = 1; b = 0 }
  let bitx = S { w = 1; a = 1; b = 1 }
  let bitz = S { w = 1; a = 0; b = 1 }

  let box d =
    if d.cw = 1 then
      match (d.ca, d.cb) with
      | 0, 0 -> bit0
      | 1, 0 -> bit1
      | 1, _ -> bitx
      | _ -> bitz
    else S { w = d.cw; a = d.ca; b = d.cb }

  let wider (x : int) y = if x >= y then x else y

  (* Truth of a condition as a code: [no] (definite 0), [yes] (a defined
     1 bit anywhere), [unknown] (x/z and no defined 1). *)
  let no = 0
  let yes = 1
  let unknown = 2
  let truth a b = if a land lnot b <> 0 then yes else if b <> 0 then unknown else no

  (* A 1-bit result from a truth code. *)
  let set_truth d t =
    if t = yes then set d 1 1 0 else if t = no then set d 1 0 0 else set d 1 1 1

  (* An index or shift amount: the value, or -1 when it has x/z bits. *)
  let to_index a b = if b <> 0 then -1 else a

  let add d xw xa xb yw ya yb =
    let w = wider xw yw in
    if xb lor yb <> 0 then set_x d w else set d w ((xa + ya) land mask w) 0

  let sub d xw xa xb yw ya yb =
    let w = wider xw yw in
    if xb lor yb <> 0 then set_x d w else set d w ((xa - ya) land mask w) 0

  let mul d xw xa xb yw ya yb =
    let w = wider xw yw in
    if xb lor yb <> 0 then set_x d w else set d w (xa * ya land mask w) 0

  let neg d w a b = if b <> 0 then set_x d w else set d w (-a land mask w) 0

  (* Vec.divmod yields all-x when either side has x/z or the divisor is
     zero. *)
  let div d xw xa xb yw ya yb =
    let w = wider xw yw in
    if xb lor yb <> 0 || ya = 0 then set_x d w else set d w (xa / ya land mask w) 0

  let rem d xw xa xb yw ya yb =
    let w = wider xw yw in
    if xb lor yb <> 0 || ya = 0 then set_x d w
    else set d w (xa mod ya land mask w) 0

  (* Bitwise ops zero-extend the narrower operand: bits beyond its width
     read as V0, which the (a,b) = (0,0) encoding already provides. *)
  let logand d xw xa xb yw ya yb =
    let w = wider xw yw in
    let m = mask w in
    let one_x = xa land lnot xb and one_y = ya land lnot yb in
    let zero_x = lnot xa land lnot xb and zero_y = lnot ya land lnot yb in
    let res_one = one_x land one_y in
    let res_zero = (zero_x lor zero_y) land m in
    let res_b = m land lnot (res_one lor res_zero) in
    set d w (res_one lor res_b) res_b

  let logor d xw xa xb yw ya yb =
    let w = wider xw yw in
    let m = mask w in
    let one_x = xa land lnot xb and one_y = ya land lnot yb in
    let zero_x = lnot xa land lnot xb and zero_y = lnot ya land lnot yb in
    let res_one = one_x lor one_y in
    let res_zero = zero_x land zero_y land m in
    let res_b = m land lnot (res_one lor res_zero) in
    set d w (res_one lor res_b) res_b

  let logxor d xw xa xb yw ya yb =
    let w = wider xw yw in
    let m = mask w in
    let xz = (xb lor yb) land m in
    set d w (((xa lxor ya) land lnot xz land m) lor xz) xz

  let lognot d w a b = set d w ((lnot a land lnot b land mask w) lor b) b

  let logxnor d xw xa xb yw ya yb =
    logxor d xw xa xb yw ya yb;
    lognot d d.cw d.ca d.cb

  (* Reductions: 1-bit results. *)
  let reduce_and d w a b =
    (* A definite 0 anywhere dominates; otherwise any x/z poisons. *)
    if lnot a land lnot b land mask w <> 0 then set d 1 0 0
    else if b <> 0 then set d 1 1 1
    else set d 1 1 0

  let reduce_or d _w a b =
    if a land lnot b <> 0 then set d 1 1 0
    else if b <> 0 then set d 1 1 1
    else set d 1 0 0

  let parity n =
    let n = n lxor (n lsr 32) in
    let n = n lxor (n lsr 16) in
    let n = n lxor (n lsr 8) in
    let n = n lxor (n lsr 4) in
    let n = n lxor (n lsr 2) in
    let n = n lxor (n lsr 1) in
    n land 1

  let reduce_xor d _w a b =
    if b <> 0 then set d 1 1 1 else set d 1 (parity a) 0

  let reduce_nand d w a b =
    reduce_and d w a b;
    lognot d 1 d.ca d.cb

  let reduce_nor d w a b =
    reduce_or d w a b;
    lognot d 1 d.ca d.cb

  let reduce_xnor d w a b =
    reduce_xor d w a b;
    lognot d 1 d.ca d.cb

  (* Logical ops, on truth codes. *)
  let log_and_truth tx ty =
    if tx = no || ty = no then no else if tx = yes && ty = yes then yes else unknown

  let log_or_truth tx ty =
    if tx = yes || ty = yes then yes else if tx = no && ty = no then no else unknown

  let log_not_truth t = if t = yes then no else if t = no then yes else unknown

  let log_and d _ xa xb _ ya yb = set_truth d (log_and_truth (truth xa xb) (truth ya yb))
  let log_or d _ xa xb _ ya yb = set_truth d (log_or_truth (truth xa xb) (truth ya yb))
  let log_not d _ a b = set_truth d (log_not_truth (truth a b))

  (* Comparisons: 1-bit results; any x/z operand bit gives X. *)
  let cmp d c xb yb = if xb lor yb <> 0 then set d 1 1 1 else set d 1 (Bool.to_int c) 0
  let eq d _ xa xb _ ya yb = cmp d (xa = ya) xb yb
  let neq d _ xa xb _ ya yb = cmp d (xa <> ya) xb yb
  let lt d _ xa xb _ ya yb = cmp d (xa < ya) xb yb
  let le d _ xa xb _ ya yb = cmp d (xa <= ya) xb yb
  let gt d _ xa xb _ ya yb = cmp d (xa > ya) xb yb
  let ge d _ xa xb _ ya yb = cmp d (xa >= ya) xb yb

  let case_eq d _ xa xb _ ya yb = set d 1 (Bool.to_int (xa = ya && xb = yb)) 0
  let case_neq d _ xa xb _ ya yb = set d 1 (Bool.to_int (xa <> ya || xb <> yb)) 0

  (* Shifts keep the left operand's width; [n] is the amount as
     [to_index] gives it. *)
  let shift_left d w a b n =
    if n < 0 then set_x d w
    else if n >= w then set d w 0 0
    else set d w ((a lsl n) land mask w) ((b lsl n) land mask w)

  let shift_right d w a b n =
    if n < 0 then set_x d w
    else if n >= w then set d w 0 0
    else set d w (a lsr n) (b lsr n)

  (* [concat hi lo]; requires [hw + lw <= max_packed_width]. *)
  let concat d hw ha hb lw la lb = set d (hw + lw) (la lor (ha lsl lw)) (lb lor (hb lsl lw))

  (* [k] copies; requires [k >= 1] and [k * w <= max_packed_width]. *)
  let replicate d k w a b =
    let ra = ref a and rb = ref b in
    for _ = 2 to k do
      ra := a lor (!ra lsl w);
      rb := b lor (!rb lsl w)
    done;
    set d (k * w) !ra !rb

  (* Requires [0 <= lsb <= msb < w]. *)
  let select d a b ~msb ~lsb =
    let wr = msb - lsb + 1 in
    let m = mask wr in
    set d wr ((a lsr lsb) land m) ((b lsr lsb) land m)

  (* Bits [lsb..msb] of (w, a, b) replaced by the source planes, truncated
     or V0-extended to the slice; requires [0 <= lsb <= msb < w]. *)
  let insert d w a b ~msb ~lsb sa sb =
    let m = mask (msb - lsb + 1) in
    let hole = lnot (m lsl lsb) in
    set d w ((a land hole) lor ((sa land m) lsl lsb)) ((b land hole) lor ((sb land m) lsl lsb))

  (* Conditional merge when the condition is x/z: bitwise agreement at
     the wider width, disagreeing bits become X. *)
  let merge_x d xw xa xb yw ya yb =
    let w = wider xw yw in
    let m = mask w in
    let diff = ((xa lxor ya) lor (xb lxor yb)) land m in
    set d w (((xa land lnot diff) lor diff) land m) ((xb lor diff) land m)
end

(* --- Boxed operators: the plane operators on [S], [Vec] otherwise ----- *)

let via_vec2 f x y = of_vec (f (to_vec x) (to_vec y))
let via_vec1 f x = of_vec (f (to_vec x))

let lift1 op vecop = function
  | S { w; a; b } ->
      let d = Planes.make 0 in
      op d w a b;
      Planes.box d
  | p -> via_vec1 vecop p

let lift2 op vecop x y =
  match (x, y) with
  | S p, S q ->
      let d = Planes.make 0 in
      op d p.w p.a p.b q.w q.a q.b;
      Planes.box d
  | _ -> via_vec2 vecop x y

let add x y = lift2 Planes.add Vec.add x y
let sub x y = lift2 Planes.sub Vec.sub x y
let mul x y = lift2 Planes.mul Vec.mul x y
let neg x = lift1 Planes.neg Vec.neg x
let div x y = lift2 Planes.div Vec.div x y
let rem x y = lift2 Planes.rem Vec.rem x y
let logand x y = lift2 Planes.logand Vec.logand x y
let logor x y = lift2 Planes.logor Vec.logor x y
let logxor x y = lift2 Planes.logxor Vec.logxor x y
let lognot x = lift1 Planes.lognot Vec.lognot x
let reduce_and x = lift1 Planes.reduce_and Vec.reduce_and x
let reduce_or x = lift1 Planes.reduce_or Vec.reduce_or x
let reduce_xor x = lift1 Planes.reduce_xor Vec.reduce_xor x

let of_bit bit =
  match bit with
  | Bit.V0 -> Planes.bit0
  | Bit.V1 -> Planes.bit1
  | Bit.X -> Planes.bitx
  | Bit.Z -> Planes.bitz

(* Truth code of any value (see [Planes.truth]); mirrors Vec.to_bool, in
   which any defined 1 bit wins over x/z. *)
let truth = function
  | S { a; b; _ } -> Planes.truth a b
  | V v -> (
      match Vec.to_bool v with
      | Some true -> Planes.yes
      | Some false -> Planes.no
      | None -> Planes.unknown)

let to_bool p =
  let t = truth p in
  if t = Planes.yes then Some true else if t = Planes.no then Some false else None

let of_truth t =
  if t = Planes.yes then Planes.bit1 else if t = Planes.no then Planes.bit0 else Planes.bitx

let log_and x y = of_truth (Planes.log_and_truth (truth x) (truth y))
let log_or x y = of_truth (Planes.log_or_truth (truth x) (truth y))
let log_not x = of_truth (Planes.log_not_truth (truth x))

let eq x y = lift2 Planes.eq Vec.eq x y
let neq x y = lift2 Planes.neq Vec.neq x y
let lt x y = lift2 Planes.lt Vec.lt x y
let le x y = lift2 Planes.le Vec.le x y
let gt x y = lift2 Planes.gt Vec.gt x y
let ge x y = lift2 Planes.ge Vec.ge x y
let case_eq x y = lift2 Planes.case_eq Vec.case_eq x y
let case_neq x y = lift2 Planes.case_neq Vec.case_neq x y

(* --- Shifts (width of the left operand is preserved) ------------------ *)

let to_index p = match to_int p with Some n -> n | None -> -1

let shift op vecop x amount =
  match x with
  | S { w; a; b } ->
      let d = Planes.make 0 in
      op d w a b (to_index amount);
      Planes.box d
  | V v -> V (vecop v (to_vec amount))

let shift_left x amount = shift Planes.shift_left Vec.shift_left x amount
let shift_right x amount = shift Planes.shift_right Vec.shift_right x amount

(* --- Structural ops --------------------------------------------------- *)

(* [concat hi lo], matching Vec.concat's argument order. *)
let concat hi lo =
  match (hi, lo) with
  | S p, S q when p.w + q.w <= max_packed_width ->
      let d = Planes.make 0 in
      Planes.concat d p.w p.a p.b q.w q.a q.b;
      Planes.box d
  | _ -> of_vec (Vec.concat (to_vec hi) (to_vec lo))

let replicate k p =
  if k <= 0 then invalid_arg "Packed.replicate";
  (* A wide result is built once: repeated [concat] through [Vec] would
     copy quadratically in [k]. *)
  match p with
  | S { w; a; b } when repl_fits ~limit:max_packed_width k w ->
      let d = Planes.make 0 in
      Planes.replicate d k w a b;
      Planes.box d
  | _ -> of_vec (Vec.replicate k (to_vec p))

let select p ~msb ~lsb =
  let wr = msb - lsb + 1 in
  match p with
  | S { w; a; b } when wr >= 1 && wr <= max_packed_width && lsb >= 0 && msb < w ->
      let d = Planes.make 0 in
      Planes.select d a b ~msb ~lsb;
      Planes.box d
  | _ -> of_vec (Vec.select (to_vec p) ~msb ~lsb)

let insert ~into ~msb ~lsb src =
  match into with
  | S { w; a; b } when lsb >= 0 && msb < w && msb >= lsb -> (
      match resize (msb - lsb + 1) src with
      | S s ->
          let d = Planes.make 0 in
          Planes.insert d w a b ~msb ~lsb s.a s.b;
          Planes.box d
      | V _ -> assert false (* msb - lsb + 1 <= w <= max_packed_width *))
  | _ -> of_vec (Vec.insert ~into:(to_vec into) ~msb ~lsb (to_vec src))

let merge_x x y =
  match (x, y) with
  | S p, S q ->
      let d = Planes.make 0 in
      Planes.merge_x d p.w p.a p.b q.w q.a q.b;
      Planes.box d
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
