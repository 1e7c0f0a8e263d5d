type t = Bit.t array
(* Invariant: length >= 1. Index 0 = LSB. Arrays are never mutated after
   construction; every operation returns a fresh array. *)

let width = Array.length
let get v i = if i >= 0 && i < Array.length v then v.(i) else Bit.V0

let set v i b =
  if i < 0 || i >= Array.length v then Array.copy v
  else (
    let v' = Array.copy v in
    v'.(i) <- b;
    v')

let make w b =
  if w <= 0 then invalid_arg "Vec.make: width must be positive";
  Array.make w b

let zero w = make w Bit.V0
let ones w = make w Bit.V1
let all_x w = make w Bit.X
let all_z w = make w Bit.Z

let of_bits bits =
  if Array.length bits = 0 then invalid_arg "Vec.of_bits: empty";
  Array.copy bits

let to_bits v = Array.copy v

let of_int w n =
  if n < 0 then invalid_arg "Vec.of_int: negative";
  Array.init w (fun i ->
      if i < 63 && (n lsr i) land 1 = 1 then Bit.V1 else Bit.V0)

let to_int v =
  let w = Array.length v in
  let rec go i acc =
    if i >= w then Some acc
    else
      match v.(i) with
      | Bit.V0 -> go (i + 1) acc
      | Bit.V1 -> if i >= 62 then None else go (i + 1) (acc lor (1 lsl i))
      | Bit.X | Bit.Z -> None
  in
  go 0 0

let of_string s =
  let chars =
    String.to_seq s |> Seq.filter (fun c -> c <> '_') |> List.of_seq
  in
  if chars = [] then invalid_arg "Vec.of_string: empty";
  let n = List.length chars in
  let v = Array.make n Bit.V0 in
  (* MSB-first input; store LSB at index 0. *)
  List.iteri (fun i c -> v.(n - 1 - i) <- Bit.of_char c) chars;
  v

let to_string v =
  String.init (Array.length v) (fun i ->
      Bit.to_char v.(Array.length v - 1 - i))

let equal a b =
  Array.length a = Array.length b && Array.for_all2 Bit.equal a b

let is_fully_defined v = Array.for_all Bit.is_defined v
let has_xz v = not (is_fully_defined v)

(* Ceiling of log2 of the unsigned value, 32 bits wide: the bit length of
   v - 1, so 0 and 1 give 0. Any x/z bit gives all-x. *)
let clog2 v =
  if has_xz v then all_x 32
  else
    let top = ref (-1) and ones = ref 0 in
    Array.iteri
      (fun i b ->
        if b = Bit.V1 then begin
          top := i;
          incr ones
        end)
      v;
    of_int 32 (if !ones <= 1 then max !top 0 else !top + 1)

let resize w v =
  if w <= 0 then invalid_arg "Vec.resize: width must be positive";
  (* Arrays are immutable after construction, so same-width resize can
     return the argument itself; this is the hot path of every store. *)
  if Array.length v = w then v else Array.init w (fun i -> get v i)

let to_bool v =
  if Array.exists (fun b -> b = Bit.V1) v then Some true
  else if Array.for_all (fun b -> b = Bit.V0) v then Some false
  else None

let map2 f a b =
  let w = max (Array.length a) (Array.length b) in
  Array.init w (fun i -> f (get a i) (get b i))

let logand = map2 Bit.log_and
let logor = map2 Bit.log_or
let logxor = map2 Bit.log_xor
let lognot v = Array.map Bit.log_not v

let reduce f v =
  (* IEEE treats z as x inside logic ops: a width-1 reduction must not
     leak a raw z bit (the fold below never produces one). *)
  let acc = ref (match v.(0) with Bit.Z -> Bit.X | b -> b) in
  for i = 1 to Array.length v - 1 do
    acc := f !acc v.(i)
  done;
  [| !acc |]

let reduce_and = reduce Bit.log_and
let reduce_or = reduce Bit.log_or
let reduce_xor = reduce Bit.log_xor

(* Arithmetic helpers over defined operands. *)

let bit_of_bool b = if b then Bit.V1 else Bit.V0
let bool_of_bit b = b = Bit.V1

let binop_width a b = max (Array.length a) (Array.length b)

let add a b =
  let w = binop_width a b in
  if has_xz a || has_xz b then all_x w
  else (
    let out = Array.make w Bit.V0 in
    let carry = ref false in
    for i = 0 to w - 1 do
      let x = bool_of_bit (get a i) and y = bool_of_bit (get b i) in
      let s = (x <> y) <> !carry in
      carry := (x && y) || (x && !carry) || (y && !carry);
      out.(i) <- bit_of_bool s
    done;
    out)

let neg v =
  if has_xz v then all_x (Array.length v)
  else add (lognot v) (of_int (Array.length v) 1)

let sub a b =
  let w = binop_width a b in
  if has_xz a || has_xz b then all_x w else add (resize w a) (neg (resize w b))

let mul a b =
  let w = binop_width a b in
  if has_xz a || has_xz b then all_x w
  else (
    let acc = ref (zero w) in
    let shifted = ref (resize w a) in
    for i = 0 to w - 1 do
      if bool_of_bit (get b i) then acc := add !acc !shifted;
      (* Shift [a] left by one for the next partial product. *)
      shifted := Array.init w (fun j -> get !shifted (j - 1))
    done;
    !acc)

(* Unsigned comparison of defined vectors, MSB down. *)
let cmp_defined a b =
  let w = binop_width a b in
  let rec go i =
    if i < 0 then 0
    else
      match (get a i, get b i) with
      | Bit.V0, Bit.V1 -> -1
      | Bit.V1, Bit.V0 -> 1
      | _ -> go (i - 1)
  in
  go (w - 1)

let divmod a b =
  let w = binop_width a b in
  if has_xz a || has_xz b || to_bool b <> Some true then (all_x w, all_x w)
  else (
    (* Long division: walk dividend bits MSB to LSB. *)
    let q = Array.make w Bit.V0 in
    let r = ref (zero w) in
    for i = w - 1 downto 0 do
      (* r := (r << 1) | a.(i) *)
      let shifted = Array.init w (fun j -> get !r (j - 1)) in
      shifted.(0) <- get a i;
      r := shifted;
      if cmp_defined !r b >= 0 then (
        r := sub !r (resize w b);
        q.(i) <- Bit.V1)
    done;
    (q, !r))

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let shift_left v amount =
  let w = Array.length v in
  match to_int amount with
  | None -> all_x w
  | Some n -> Array.init w (fun i -> if i - n < 0 then Bit.V0 else get v (i - n))

let shift_right v amount =
  let w = Array.length v in
  match to_int amount with
  | None -> all_x w
  | Some n -> Array.init w (fun i -> get v (i + n))

let eq a b =
  if has_xz a || has_xz b then [| Bit.X |]
  else [| bit_of_bool (cmp_defined a b = 0) |]

let neq a b =
  if has_xz a || has_xz b then [| Bit.X |]
  else [| bit_of_bool (cmp_defined a b <> 0) |]

let rel op a b =
  if has_xz a || has_xz b then [| Bit.X |]
  else [| bit_of_bool (op (cmp_defined a b) 0) |]

let lt a b = rel ( < ) a b
let le a b = rel ( <= ) a b
let gt a b = rel ( > ) a b
let ge a b = rel ( >= ) a b

let case_eq a b =
  let w = binop_width a b in
  let rec go i = if i >= w then true else get a i = get b i && go (i + 1) in
  [| bit_of_bool (go 0) |]

let case_neq a b = lognot (case_eq a b)

let bit_of_bool_opt = function
  | Some true -> Bit.V1
  | Some false -> Bit.V0
  | None -> Bit.X

let log_and a b =
  match (to_bool a, to_bool b) with
  | Some false, _ | _, Some false -> [| Bit.V0 |]
  | Some true, Some true -> [| Bit.V1 |]
  | _ -> [| Bit.X |]

let log_or a b =
  match (to_bool a, to_bool b) with
  | Some true, _ | _, Some true -> [| Bit.V1 |]
  | Some false, Some false -> [| Bit.V0 |]
  | _ -> [| Bit.X |]

let log_not v =
  [| Bit.log_not (bit_of_bool_opt (to_bool v)) |]

let concat hi lo = Array.append lo hi

let replicate n v =
  if n <= 0 then invalid_arg "Vec.replicate: count must be positive";
  let parts = List.init n (fun _ -> v) in
  Array.concat parts

let select v ~msb ~lsb =
  if msb < lsb then invalid_arg "Vec.select: msb < lsb";
  Array.init
    (msb - lsb + 1)
    (fun i ->
      let j = lsb + i in
      if j >= 0 && j < Array.length v then v.(j) else Bit.X)

let insert ~into ~msb ~lsb v =
  if msb < lsb then invalid_arg "Vec.insert: msb < lsb";
  let out = Array.copy into in
  let src = resize (msb - lsb + 1) v in
  for i = lsb to msb do
    if i >= 0 && i < Array.length out then out.(i) <- src.(i - lsb)
  done;
  out

let pp fmt v = Format.pp_print_string fmt (to_string v)

let pp_trace fmt v =
  match to_int v with
  | Some n when Array.length v <= 32 -> Format.fprintf fmt "%d" n
  | _ -> Format.fprintf fmt "%db'%s" (Array.length v) (to_string v)
