(** Four-state bit vectors. Index 0 is the least-significant bit. All
    arithmetic follows Verilog unsigned semantics: any x/z operand bit makes
    an arithmetic/relational result fully unknown. *)

type t

val width : t -> int

(** [get v i] is bit [i] (LSB = 0); out-of-range reads return [Bit.V0]
    (Verilog zero-extension for in-expression widening). *)
val get : t -> int -> Bit.t

(** [set v i b] is a fresh vector; out-of-range indexes are ignored. *)
val set : t -> int -> Bit.t -> t

val make : int -> Bit.t -> t
val zero : int -> t
val ones : int -> t
val all_x : int -> t
val all_z : int -> t
val of_bits : Bit.t array -> t
val to_bits : t -> Bit.t array

(** [of_int width n] truncates [n] to [width] bits. [n] must be >= 0. *)
val of_int : int -> int -> t

(** [to_int v] is [Some n] iff every bit is defined and the value fits in an
    OCaml int. *)
val to_int : t -> int option

(** [of_string s] parses a binary string, MSB first, over [01xz_]. *)
val of_string : string -> t

(** [to_string v] prints MSB first. *)
val to_string : t -> string

val equal : t -> t -> bool
val is_fully_defined : t -> bool
val has_xz : t -> bool

(** [$clog2]: the ceiling of log2 of the unsigned value, as a 32-bit
    vector ([clog2] of 0 and of 1 is 0); all-x on any x/z bit. *)
val clog2 : t -> t

(** [resize w v] truncates or zero-extends to width [w]. *)
val resize : int -> t -> t

(** Truth value of a vector used in conditional contexts: [Some true] if any
    bit is 1, [Some false] if all bits are 0, [None] (unknown) otherwise. *)
val to_bool : t -> bool option

(** Bitwise operations; operands are zero-extended to the max width. *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

(** Reduction operators; result has width 1. *)

val reduce_and : t -> t
val reduce_or : t -> t
val reduce_xor : t -> t

(** Arithmetic; results have the max operand width (callers resize for
    assignment-context widths). Implemented over raw bit arrays so widths
    beyond 63 bits are exact. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t

(** Division/modulo by zero, like any x/z operand, yields all-x. *)
val div : t -> t -> t

val rem : t -> t -> t

(** Shifts. An x/z shift amount yields all-x. *)

val shift_left : t -> t -> t
val shift_right : t -> t -> t

(** Relational operators; 1-bit results, x on any x/z operand bit. *)

val eq : t -> t -> t
val neq : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t

(** Case equality (===): x/z compare literally; result is always 0/1. *)

val case_eq : t -> t -> t
val case_neq : t -> t -> t

(** Logical operators over truth values. *)

val log_and : t -> t -> t
val log_or : t -> t -> t
val log_not : t -> t

(** [concat hi lo] appends with [hi] in the most-significant position,
    matching Verilog [{hi, lo}]. *)
val concat : t -> t -> t

val replicate : int -> t -> t

(** [select v ~msb ~lsb] extracts the inclusive range; out-of-range bits read
    as x (IEEE out-of-bounds select). Requires [msb >= lsb]. *)
val select : t -> msb:int -> lsb:int -> t

(** [insert ~into ~msb ~lsb v] writes [v] (resized to the range width) into
    the bit range of [into], ignoring out-of-range positions. *)
val insert : into:t -> msb:int -> lsb:int -> t -> t

val pp : Format.formatter -> t -> unit

(** Compact display used in traces: decimal when fully defined and narrow,
    binary otherwise. *)
val pp_trace : Format.formatter -> t -> unit
