(** The CirFix fitness function (paper Sec. 3.2).

    Candidate repairs are scored by a bit-level comparison of the recorded
    simulation trace against the expected-behaviour oracle, sampled at every
    rising clock edge. Per bit: matching defined values add 1, matching x/z
    values add [phi], defined mismatches subtract 1, and comparisons where
    either side is x/z subtract [phi]. The normalized fitness is
    [max(0, sum) / total] in [0, 1]; 1.0 marks a plausible
    (testbench-adequate) repair.

    Each signal's score is computed from four integer counts (matches,
    defined mismatches, x/z matches, x/z mismatches) as
    [matches - mismatches + phi * (xz_matches - xz_mismatches)], and its
    total likewise with every count added. For an oracle column of at most
    61 bits the counts of one sample come from popcounts over the
    bitplanes of the {!Oracle} column and of the recorded
    {!Logic4.Packed} value; wider columns are compared bit by bit. For an
    integer or dyadic [phi] (1, 2, 3, 0.5, ...) the result equals the
    per-bit running sum of the definition exactly; any other [phi] gets
    the count-based value, which can differ from such a running sum in
    the last bits.

    The aggregate {!score} is defined as the fold of the per-signal
    breakdown {!score_by_signal}, so per-signal sums and totals add up to
    the aggregate exactly — the identity the repair journal's attribution
    records rely on. Scoring walks the actual trace once, so it is linear
    in the trace length. *)

type score = {
  sum : float;  (** signed fitness sum over all timestamps and bits *)
  total : float;  (** total attainable magnitude *)
  fitness : float;  (** [max(0, sum) / total], in [0, 1] *)
}

type signal_score = {
  s_sum : float;  (** signed sum over this signal's timestamps and bits *)
  s_total : float;  (** attainable magnitude for this signal *)
  s_fitness : float;  (** [max(0, s_sum) / s_total], in [0, 1] *)
  first_divergence : int option;
      (** timestamp of the earliest oracle sample (in oracle order) where
          any bit of this signal scored negatively (defined mismatch or
          x/z mismatch); [None] when the signal never diverges from the
          oracle *)
}

(** Per-signal scoring breakdown of [actual] against [expected], sorted by
    signal name. Each oracle sample is scored against the last sample of
    [actual] with its timestamp. Timestamps or signals missing from
    [actual] (e.g. after an aborted simulation) are scored as all-x; a
    narrower actual value is zero-extended to the oracle's width, a wider
    one truncated. *)
val score_by_signal :
  phi:float ->
  expected:Oracle.t ->
  actual:Sim.Recorder.trace ->
  (string * signal_score) list

(** Full scoring breakdown of [actual] against [expected]: the fold of
    {!score_by_signal}. *)
val score :
  phi:float ->
  expected:Oracle.t ->
  actual:Sim.Recorder.trace ->
  score

(** [fitness ~phi ~expected ~actual] is [(score ...).fitness]. *)
val fitness :
  phi:float ->
  expected:Oracle.t ->
  actual:Sim.Recorder.trace ->
  float

(** Output wires/registers whose value ever disagrees with the oracle: the
    starting mismatch set for fault localization (Algorithm 2, line 2).
    Sorted, duplicate-free: the signals whose
    {!signal_score.first_divergence} is [Some _]. *)
val mismatched_signals :
  expected:Oracle.t -> actual:Sim.Recorder.trace -> string list
