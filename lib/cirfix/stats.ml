(* Small statistics toolkit used by the evaluation harness: descriptive
   statistics and the two-tailed Mann-Whitney U test (normal approximation
   with tie correction), as used in the paper's RQ2. *)

let mean = function
  | [] -> nan
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

(* Throughput of a repair run: candidate simulations per wall-clock
   second, the headline metric of the parallel evaluation layer. *)
let sims_per_sec ~probes ~wall_seconds =
  if wall_seconds <= 0. then 0. else float_of_int probes /. wall_seconds

(* Statement coverage of a simulation as a percentage (0 when the design
   has no statements, e.g. a pure-structural netlist). *)
let coverage_percent ~covered ~total =
  if total <= 0 then 0. else 100. *. float_of_int covered /. float_of_int total

(* Percentage helper for counter breakdowns (0 when the total is 0). *)
let percent ~part ~total =
  if total <= 0 then 0. else 100. *. float_of_int part /. float_of_int total

(* Render label/value rows as an aligned three-column table, one row per
   line: labels padded to the widest label, value heads (the text before
   the first two-space gap, or the whole value) right-aligned to the
   widest head, and any annotation after the gap in a third column. Both
   widths are recomputed from the rows themselves, so callers need no
   fixed-width padding and a label longer than every value — or a count
   wider than any caller guessed — can never shear the columns. Used for
   the CLI repair summaries. *)
let kv_table ?(indent = 2) (rows : (string * string) list) : string =
  let split v =
    let n = String.length v in
    let rec gap i =
      if i + 1 >= n then None
      else if v.[i] = ' ' && v.[i + 1] = ' ' then Some i
      else gap (i + 1)
    in
    match gap 0 with
    | None -> (String.trim v, "")
    | Some i ->
        (String.trim (String.sub v 0 i), String.trim (String.sub v i (n - i)))
  in
  let rows = List.map (fun (k, v) -> (k, split v)) rows in
  let label_w =
    List.fold_left (fun acc (k, _) -> max acc (String.length k)) 0 rows
  in
  let head_w =
    List.fold_left (fun acc (_, (h, _)) -> max acc (String.length h)) 0 rows
  in
  rows
  |> List.map (fun (k, (head, annot)) ->
         let line =
           Printf.sprintf "%s%-*s  %*s" (String.make indent ' ') label_w k
             head_w head
         in
         if annot = "" then line else line ^ "  " ^ annot)
  |> String.concat "\n"

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let stddev l =
  match l with
  | [] | [ _ ] -> 0.
  | _ ->
      let m = mean l in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. l
        /. float_of_int (List.length l - 1)
      in
      sqrt var

(* Ranks with ties averaged. *)
let ranks (values : float array) : float array =
  let n = Array.length values in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare values.(a) values.(b)) order;
  let r = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && values.(order.(!j + 1)) = values.(order.(!i)) do
      incr j
    done;
    (* Positions !i..!j are tied; assign the average rank (1-based). *)
    let avg = float_of_int (!i + !j + 2) /. 2. in
    for k = !i to !j do
      r.(order.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

(* Standard normal CDF via the error function approximation
   (Abramowitz & Stegun 7.1.26). *)
let normal_cdf z =
  let t = 1. /. (1. +. (0.3275911 *. Float.abs z /. sqrt 2.)) in
  let poly =
    t
    *. (0.254829592
       +. (t
          *. (-0.284496736
             +. (t *. (1.421413741 +. (t *. (-1.453152027 +. (t *. 1.061405429))))))))
  in
  let erf = 1. -. (poly *. exp (-.(z *. z) /. 2.)) in
  if z >= 0. then 0.5 *. (1. +. erf) else 0.5 *. (1. -. erf)

type mwu = { u : float; z : float; p_two_tailed : float }

(* Two-tailed Mann-Whitney U test between samples [a] and [b]. *)
let mann_whitney_u (a : float list) (b : float list) : mwu =
  let na = List.length a and nb = List.length b in
  if na = 0 || nb = 0 then { u = nan; z = nan; p_two_tailed = nan }
  else (
    let all = Array.of_list (a @ b) in
    let r = ranks all in
    let ra = ref 0. in
    for i = 0 to na - 1 do
      ra := !ra +. r.(i)
    done;
    let fa = float_of_int na and fb = float_of_int nb in
    let u1 = !ra -. (fa *. (fa +. 1.) /. 2.) in
    let u2 = (fa *. fb) -. u1 in
    let u = Float.min u1 u2 in
    let mu = fa *. fb /. 2. in
    (* Tie correction for the variance. *)
    let n = fa +. fb in
    let tie_term =
      let tbl = Hashtbl.create 16 in
      Array.iter
        (fun v ->
          Hashtbl.replace tbl v (1 + Option.value (Hashtbl.find_opt tbl v) ~default:0))
        all;
      Hashtbl.fold
        (fun _ t acc ->
          let t = float_of_int t in
          acc +. ((t ** 3.) -. t))
        tbl 0.
    in
    let sigma2 = fa *. fb /. 12. *. (n +. 1. -. (tie_term /. (n *. (n -. 1.)))) in
    let sigma = sqrt (Float.max sigma2 1e-12) in
    let z = (u -. mu) /. sigma in
    let p = 2. *. normal_cdf (-.Float.abs z) in
    { u; z; p_two_tailed = Float.min 1.0 p })
