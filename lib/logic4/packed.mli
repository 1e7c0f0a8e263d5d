(* Packed 4-state vectors, the simulator's runtime value type: two
   bitplanes per net, stored in native ints for widths up to
   [max_packed_width]; wider values fall through to [Vec].
   Every operation is observationally identical to its [Vec] counterpart
   (pinned by the fuzz suite) -- this module only changes the cost model.

   Values are canonical: [S] iff the width is at most [max_packed_width],
   and the planes of an [S] hold no bits at or above [w].  Every function
   here returns canonical values, and [equal] (hence the simulator's
   change detection) is exact only on canonical values, so code outside
   this module must not build [S]/[V] by hand. *)

type t = S of { w : int; a : int; b : int } | V of Vec.t

val max_packed_width : int

(* [repl_fits ~limit k w]: [k] copies of a [w]-bit value fit in [limit]
   bits ([k], [w] non-negative). Decided by division, so a huge [k]
   cannot wrap the product into a small or negative width. *)
val repl_fits : limit:int -> int -> int -> bool

val width : t -> int
val of_vec : Vec.t -> t
val to_vec : t -> Vec.t
val zero : int -> t
val all_x : int -> t
val of_int : int -> int -> t
val of_bit : Bit.t -> t

(* [of_planes w ~a ~b] is the width-[w] value with bitplanes [a] and [b],
   masked to [w] bits; [w] must be at most [max_packed_width]. *)
val of_planes : int -> a:int -> b:int -> t
(* The two planes of a value as defined values of its width: [a] has a
   1 where the bit is 1 or x, [b] where it is x or z. [of_plane_values]
   is the inverse, for two defined values of one width; bitwise masks
   over the planes (known bits, say) are then plain [logand]/[logor]. *)
val to_plane_values : t -> t * t
val of_plane_values : t -> t -> t
val get : t -> int -> Bit.t
val equal : t -> t -> bool

(* Same-width resize returns its argument. *)
val resize : int -> t -> t
val to_bool : t -> bool option
val to_int : t -> int option

(* [to_int], or -1 when the value has x/z bits or does not fit. *)
val to_index : t -> int
val has_xz : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val div : t -> t -> t
val rem : t -> t -> t

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val reduce_and : t -> t
val reduce_or : t -> t
val reduce_xor : t -> t

val log_and : t -> t -> t
val log_or : t -> t -> t
val log_not : t -> t

val eq : t -> t -> t
val neq : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t
val case_eq : t -> t -> t
val case_neq : t -> t -> t

val shift_left : t -> t -> t
val shift_right : t -> t -> t

val concat : t -> t -> t
val replicate : int -> t -> t
val select : t -> msb:int -> lsb:int -> t
val insert : into:t -> msb:int -> lsb:int -> t -> t

(* Conditional merge when the condition is x/z: bitwise agreement at the
   wider width, disagreeing bits become X (mirrors Sim.Eval's Cond). *)
val merge_x : t -> t -> t

(* A mutable narrow value: width and bitplanes, canonical like [S].  The
   compiled simulator gives every expression one, allocated at compile
   time, and evaluates into it. *)
type cell = { mutable cw : int; mutable ca : int; mutable cb : int }

(* Truth code of a condition, [Planes.no]/[yes]/[unknown]. *)
val truth : t -> int

(* The operators on narrow values, the single implementation the boxed
   operators above wrap.  Each reads its operands as width and planes
   ([w a b], [x*] and [y*] for two) and writes its result into the cell
   [d], which may be one of the operands' cells.  Operands and results
   must fit [max_packed_width]; where a boxed operator falls back to [Vec]
   (a result too wide, an out-of-range select or insert) the plane
   operator states its precondition. *)
module Planes : sig
  val make : int -> cell (* width [w], value 0 *)
  val set : cell -> int -> int -> int -> unit
  val set_x : cell -> int -> unit

  (* Copy a narrow value in; raises [Invalid_argument] on a wide one. *)
  val load : cell -> t -> unit

  (* The cell's value, boxed. *)
  val box : cell -> t

  val no : int
  val yes : int
  val unknown : int
  val truth : int -> int -> int (* of planes [a b] *)

  (* An index or shift amount: [a], or -1 when [b] has x/z bits. *)
  val to_index : int -> int -> int

  type op1 = cell -> int -> int -> int -> unit
  type op2 = cell -> int -> int -> int -> int -> int -> int -> unit

  val add : op2
  val sub : op2
  val mul : op2
  val neg : op1
  val div : op2
  val rem : op2
  val logand : op2
  val logor : op2
  val logxor : op2
  val logxnor : op2
  val lognot : op1
  val reduce_and : op1
  val reduce_or : op1
  val reduce_xor : op1
  val reduce_nand : op1
  val reduce_nor : op1
  val reduce_xnor : op1
  val log_and : op2
  val log_or : op2
  val log_not : op1
  val eq : op2
  val neq : op2
  val lt : op2
  val le : op2
  val gt : op2
  val ge : op2
  val case_eq : op2
  val case_neq : op2

  (* [shift_left d w a b n]: [n] is the amount as [to_index] gives it. *)
  val shift_left : cell -> int -> int -> int -> int -> unit
  val shift_right : cell -> int -> int -> int -> int -> unit

  (* [concat d hw ha hb lw la lb]; requires [hw + lw <= max_packed_width]. *)
  val concat : op2

  (* [replicate d k w a b]; requires [k >= 1], [k * w <= max_packed_width]. *)
  val replicate : cell -> int -> int -> int -> int -> unit

  (* [select d a b ~msb ~lsb] of a value of width [w]; requires
     [0 <= lsb <= msb < w]. *)
  val select : cell -> int -> int -> msb:int -> lsb:int -> unit

  (* [insert d w a b ~msb ~lsb sa sb]: bits [lsb..msb] of [(w, a, b)]
     replaced by the source planes, truncated or V0-extended to the
     slice; requires [0 <= lsb <= msb < w]. *)
  val insert : cell -> int -> int -> int -> msb:int -> lsb:int -> int -> int -> unit
  val merge_x : op2
end

val pp : Format.formatter -> t -> unit
