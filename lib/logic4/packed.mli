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

val width : t -> int
val of_vec : Vec.t -> t
val to_vec : t -> Vec.t
val zero : int -> t
val all_x : int -> t
val of_int : int -> int -> t
val of_bit : Bit.t -> t
val get : t -> int -> Bit.t
val equal : t -> t -> bool

(* Same-width resize returns its argument. *)
val resize : int -> t -> t
val to_bool : t -> bool option
val to_int : t -> int option
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

val pp : Format.formatter -> t -> unit
