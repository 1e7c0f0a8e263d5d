(** Statistics for the evaluation harness: descriptive statistics and the
    two-tailed Mann-Whitney U test (normal approximation with tie
    correction), as used by the paper's RQ2 analysis. *)

val mean : float list -> float
val median : float list -> float
val stddev : float list -> float

(** Simulations per wall-clock second (0 when no time elapsed); the
    throughput statistic reported by the CLI and the bench harness. *)
val sims_per_sec : probes:int -> wall_seconds:float -> float

(** Statement coverage as a percentage; 0 when [total] is 0. *)
val coverage_percent : covered:int -> total:int -> float

(** [percent ~part ~total] as a percentage; 0 when [total] is 0. *)
val percent : part:int -> total:int -> float

(** Aligned table of label/value rows, one per line, indented by [indent]
    (default 2) spaces. Labels are padded to the widest label; the value's
    head (text before its first two-space gap, or the whole value) is
    right-aligned to the widest head, with any annotation after the gap in
    a third column. Column widths are recomputed from the rows, so callers
    pass unpadded values. *)
val kv_table : ?indent:int -> (string * string) list -> string

(** Ranks (1-based) with ties assigned their average rank. *)
val ranks : float array -> float array

(** Standard normal CDF (Abramowitz & Stegun 7.1.26 approximation). *)
val normal_cdf : float -> float

type mwu = { u : float; z : float; p_two_tailed : float }

(** Two-tailed Mann-Whitney U test; NaNs when either sample is empty. *)
val mann_whitney_u : float list -> float list -> mwu
