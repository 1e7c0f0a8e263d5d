(* The CirFix fitness function (paper Sec. 3.2): a bit-level comparison of
   the recorded simulation trace against the expected-behaviour oracle.

   For each sampled timestamp and each output bit:
     +1    when expected and actual agree on a defined value (0/1),
     +phi  when both are x (or both z),
     -1    when both are defined but differ,
     -phi  when exactly one side is x/z (or x vs z).
   total() accumulates the corresponding positive magnitudes, and
   fitness = max(0, sum) / total, in [0, 1]; 1.0 is a plausible repair.

   Scoring counts the four kinds of bit per signal in integers and only
   then weighs them: sum = matches - mismatches + phi * (xz matches - xz
   mismatches), and likewise for total. For an oracle column of at most
   61 bits one sample costs a few word operations and popcounts over the
   bitplanes (the oracle's and the recorded [Packed] value's); only wider
   columns are compared bit by bit.

   Scoring is attributed per output signal ([score_by_signal]): the
   aggregate [score] is defined as the fold of the per-signal breakdown,
   so the per-signal sums add up to the aggregate exactly — that identity
   is what lets the repair journal explain a fitness value signal by
   signal (which output drags the score down, and from which timestamp). *)

open Logic4

type score = { sum : float; total : float; fitness : float }

type signal_score = {
  s_sum : float;
  s_total : float;
  s_fitness : float;
  first_divergence : int option;
}

(* Number of set bits of [x], for 0 <= x < 2^62 (SWAR: pairs, nibbles,
   bytes, then the byte sum lands in the top byte, which 63-bit
   wrap-around keeps since the count is below 64). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let m2 = 0x3333_3333_3333_3333 in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Per-column counts of the four kinds of bit, and the oracle index of the
   first sample with a negative one (-1: none). *)
type tally = {
  matches : int array;
  mismatches : int array;
  xz_matches : int array;
  xz_mismatches : int array;
  first : int array;
}

let count (t : tally) j i ~m ~mm ~xm ~xmm =
  t.matches.(j) <- t.matches.(j) + m;
  t.mismatches.(j) <- t.mismatches.(j) + mm;
  t.xz_matches.(j) <- t.xz_matches.(j) + xm;
  t.xz_mismatches.(j) <- t.xz_mismatches.(j) + xmm;
  if (mm > 0 || xmm > 0) && t.first.(j) < 0 then t.first.(j) <- i

(* Score sample [i] of a column of width [w] <= 61 with planes [ea]/[eb]
   against the actual value [av] ([None]: missing, scored as all-x). A
   narrower actual is zero-extended (its planes are canonical, so already
   zero above its width); a wider one is truncated to [w]. Per bit
   (a,b): (0,0)=0, (1,0)=1, (1,1)=x, (0,1)=z. *)
let score_narrow t j i ~w ~ea ~eb (av : Packed.t option) =
  let mask = (1 lsl w) - 1 in
  let aa, ab =
    match av with
    | Some (Packed.S { w = aw; a; b }) when aw <= w -> (a, b)
    | Some (Packed.S { a; b; _ }) -> (a land mask, b land mask)
    | Some (Packed.V _ as v) -> (
        match Packed.resize w v with
        | Packed.S { a; b; _ } -> (a, b)
        | Packed.V _ -> assert false)
    | None -> (mask, mask)
  in
  if aa = ea && ab = eb then
    let xm = popcount eb in
    count t j i ~m:(w - xm) ~mm:0 ~xm ~xmm:0
  else
    let diff = ea lxor aa and unknown = eb lor ab in
    let defined = lnot unknown land mask in
    let mm = popcount (defined land diff) in
    let xm = popcount (eb land ab land lnot diff) in
    count t j i
      ~m:(popcount defined - mm)
      ~mm ~xm
      ~xmm:(popcount unknown - xm)

(* The bit-by-bit form of [score_narrow], for columns wider than 61 bits:
   [Packed.get] reads bits above a value's width as 0 (zero-extension). *)
let score_wide t j i ~w (ev : Packed.t) (av : Packed.t option) =
  let m = ref 0 and mm = ref 0 and xm = ref 0 and xmm = ref 0 in
  for bit = 0 to w - 1 do
    let e = Packed.get ev bit in
    let a = match av with Some v -> Packed.get v bit | None -> Bit.X in
    match (e, a) with
    | Bit.V0, Bit.V0 | Bit.V1, Bit.V1 -> incr m
    | Bit.X, Bit.X | Bit.Z, Bit.Z -> incr xm
    | Bit.V0, Bit.V1 | Bit.V1, Bit.V0 -> incr mm
    | _ -> incr xmm
  done;
  count t j i ~m:!m ~mm:!mm ~xm:!xm ~xmm:!xmm

(* One walk over [actual]: each oracle sample is scored against the last
   actual sample with its timestamp, found at the same index when the
   actual times are strictly increasing and that sample has the oracle's
   time, and otherwise through a time index built on first use. Within a
   sample, an actual signal is found at the position after the previous
   match (recorded samples list signals in the oracle's order), and
   otherwise by name; the first occurrence wins either way. *)
let tally (o : Oracle.t) (actual : Sim.Recorder.trace) : tally =
  let k = Array.length o.columns in
  let t =
    {
      matches = Array.make k 0;
      mismatches = Array.make k 0;
      xz_matches = Array.make k 0;
      xz_mismatches = Array.make k 0;
      first = Array.make k (-1);
    }
  in
  (* Copying the trace into an array costs little, and a list walk that
     allocates nothing measured ~5% slower end to end on gp-heavy: the
     copy of a long trace lands in the major heap, which brings a minor
     collection and a major slice forward to the end of the candidate,
     when little of the minor heap is live (EXPERIMENTS.md, "Bitplane
     scoring"). *)
  let act = Array.of_list actual in
  let na = Array.length act in
  let increasing =
    let ok = ref true in
    for i = 1 to na - 1 do
      if act.(i).t <= act.(i - 1).t then ok := false
    done;
    !ok
  in
  let by_time =
    lazy
      (let tbl = Hashtbl.create (2 * na) in
       Array.iter
         (fun (s : Sim.Recorder.sample) -> Hashtbl.replace tbl s.t s.values)
         act;
       tbl)
  in
  for i = 0 to Array.length o.times - 1 do
    let time = o.times.(i) in
    let values =
      if increasing && i < na && act.(i).t = time then Some act.(i).values
      else Hashtbl.find_opt (Lazy.force by_time) time
    in
    let rest = ref (Option.value values ~default:[]) in
    for j = 0 to k - 1 do
      let c = o.columns.(j) in
      let av =
        match values with
        | None -> None
        | Some l -> (
            match !rest with
            | (name, v) :: tl when String.equal name c.name ->
                rest := tl;
                Some v
            | _ -> List.assoc_opt c.name l)
      in
      match c.planes with
      | Narrow { a; b } -> score_narrow t j i ~w:c.width ~ea:a.(i) ~eb:b.(i) av
      | Wide vals -> score_wide t j i ~w:c.width vals.(i) av
    done
  done;
  t

(* Per-signal scoring breakdown, sorted by signal name. Signals present in
   the oracle but absent from the simulation (or whole missing samples,
   e.g. after an aborted run) count as fully unknown. *)
let score_by_signal ~(phi : float) ~(expected : Oracle.t)
    ~(actual : Sim.Recorder.trace) : (string * signal_score) list =
  let t = tally expected actual in
  let fi = float_of_int in
  Array.to_list
    (Array.mapi
       (fun j (c : Oracle.column) ->
         let s_sum =
           fi (t.matches.(j) - t.mismatches.(j))
           +. (phi *. fi (t.xz_matches.(j) - t.xz_mismatches.(j)))
         and s_total =
           fi (t.matches.(j) + t.mismatches.(j))
           +. (phi *. fi (t.xz_matches.(j) + t.xz_mismatches.(j)))
         in
         ( c.name,
           {
             s_sum;
             s_total;
             s_fitness =
               (if s_total <= 0. then 0. else Float.max 0. s_sum /. s_total);
             first_divergence =
               (if t.first.(j) < 0 then None
                else Some expected.times.(t.first.(j)));
           } ))
       expected.columns)
  |> List.sort (fun (x, _) (y, _) -> String.compare x y)

(* The aggregate score is the fold of the per-signal breakdown, so
   per-signal sums and totals add up to the aggregate exactly (same
   floating-point additions, signal-major order). *)
let score ~(phi : float) ~(expected : Oracle.t)
    ~(actual : Sim.Recorder.trace) : score =
  let sum, total =
    List.fold_left
      (fun (sum, total) (_, (s : signal_score)) ->
        (sum +. s.s_sum, total +. s.s_total))
      (0., 0.)
      (score_by_signal ~phi ~expected ~actual)
  in
  let fitness = if total <= 0. then 0. else Float.max 0. sum /. total in
  { sum; total; fitness }

let fitness ~phi ~expected ~actual = (score ~phi ~expected ~actual).fitness

(* Output wires/registers whose value ever disagrees with the oracle — the
   starting mismatch set for fault localization (Alg. 2 line 2). A signal
   also mismatches if the simulation never produced its sample. *)
let mismatched_signals ~(expected : Oracle.t) ~(actual : Sim.Recorder.trace)
    : string list =
  score_by_signal ~phi:1. ~expected ~actual
  |> List.filter_map (fun (name, s) ->
         if s.first_divergence <> None then Some name else None)
