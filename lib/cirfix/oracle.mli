(** Expected-behaviour information (paper Sec. 4.1.2): the oracle CirFix
    scores candidates against is a per-clock-edge record of output wire and
    register values, obtained by simulating a previously-functioning
    (golden) version of the design under the instrumented testbench — or
    authored by hand in the same CSV format.

    The oracle is stored by column, built once per problem: the sampled
    times in one array, and for each signal its name, its one width and
    its values over time. A column of at most [Packed.max_packed_width]
    bits keeps the two bitplanes of every sample in two [int] arrays
    ([a]: value bits, [b]: unknown bits; see {!Logic4.Packed}), which is
    what lets {!Fitness} score it with a few word operations per sample. A
    wider column keeps its [Packed.t] values. Sample [i] of every column
    was taken at [times.(i)]; an oracle without samples has no columns.
    {!to_trace} and {!to_csv} exist for output only. *)

type planes =
  | Narrow of { a : int array; b : int array }
  | Wide of Logic4.Packed.t array

type column = { name : string; width : int; planes : planes }

type t = private { times : int array; columns : column array }

exception Oracle_error of string

(** The oracle holding a recorded trace. Every sample must list the same
    signals, in the same order, each with one width throughout; raises
    [Oracle_error] otherwise, or on a repeated signal name. *)
val of_trace : Sim.Recorder.trace -> t

(** The samples back as a trace; [of_trace (to_trace o)] equals [o]. *)
val to_trace : t -> Sim.Recorder.trace

(** Simulate a golden design and capture its trace. Raises [Oracle_error]
    if the golden design fails to elaborate or exhausts its budget. *)
val of_golden_design :
  ?max_steps:int ->
  ?max_time:int ->
  Verilog.Ast.design ->
  Sim.Simulate.spec ->
  t

(** Number of sampled clock edges. *)
val length : t -> int

(** The observed signals in column order; [[]] for an oracle without
    samples. *)
val signal_names : t -> string list

(** RQ4: keep only every [keep]-th sampled timestamp ([keep]=2 retains 50%,
    4 retains 25%). [keep] <= 1 is the identity. *)
val thin : keep:int -> t -> t

(** Keep only the named signals: the expected behaviour of a sliced
    module, whose recorder only observes the slice's outputs. *)
val restrict : names:string list -> t -> t

(** Fraction of [full]'s samples retained by [oracle]. *)
val coverage : full:t -> t -> float

(** CSV persistence in the paper's Figure 2 layout: a [time,...] header
    followed by one row per sampled edge. [of_csv] raises [Oracle_error]
    on a malformed header or row, a value that is not a binary string over
    [01xz_], or a column whose width changes between rows; errors about a
    value name its row (the line of [text], the header being row 1) and
    its column. *)

val to_csv : t -> string
val of_csv : string -> t
