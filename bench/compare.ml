(* Bench regression guard: compare freshly measured BENCH_*.json
   artifacts against the committed copies, row by row. Both files are
   {"artifact", "note", "cores", "rows": [{"name", "value", "unit",
   "better", "bound"?}]} (bench/main.ml writes them). Rows join by name.
   A committed row with a bound regresses when the fresh value is worse,
   in the row's own "better" direction, by more than that fraction of the
   committed value, or when the fresh file lacks it. Rows without a bound
   are reported and never fail. Exits 1 on any regression, 0 otherwise,
   2 on an unreadable file.

   Timing medians are hardware-sensitive, so this is an opt-in gate
   (`dune build @bench-check`), not part of `dune runtest`: the committed
   numbers are only meaningful as a baseline on comparable hardware.

   Usage: compare.exe COMMITTED FRESH [COMMITTED FRESH ...] *)

open Obs

type row = { value : float; higher : bool; bound : float option }

let regressions = ref 0

let fail path msg =
  Printf.eprintf "%s: %s\n" path msg;
  exit 2

let read_rows path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let doc = match Json.parse text with Ok v -> v | Error e -> fail path e in
  let row r =
    let field k = Json.member k r in
    match
      ( Option.bind (field "name") Json.to_string_opt,
        Option.bind (field "value") Json.to_float_opt,
        field "better" )
    with
    | Some name, Some value, Some (Json.Str ("higher" | "lower" as better)) ->
        ( name,
          {
            value;
            higher = better = "higher";
            bound = Option.bind (field "bound") Json.to_float_opt;
          } )
    | _ -> fail path ("malformed row " ^ Json.to_string r)
  in
  match Json.member "rows" doc with
  | Some (Json.List rows) -> List.map row rows
  | _ -> fail path "no rows"

let compare_pair committed_path fresh_path =
  Printf.printf "%s vs %s\n" committed_path fresh_path;
  let fresh = read_rows fresh_path in
  List.iter
    (fun (name, c) ->
      let bound =
        match c.bound with
        | Some b -> Printf.sprintf "%.0f%%" (b *. 100.)
        | None -> "-"
      in
      let line value delta verdict =
        Printf.printf "  %-48s %12.2f %12s %8s %5s  %s\n" name c.value value
          delta bound verdict
      in
      match List.assoc_opt name fresh with
      | None when c.bound = None -> line "-" "" "missing, not gated"
      | None ->
          incr regressions;
          line "-" "" "MISSING"
      | Some f ->
          let delta =
            if c.value = 0.0 then 0.0
            else (f.value -. c.value) /. c.value *. 100.0
          in
          let worse b =
            if c.higher then f.value < c.value *. (1.0 -. b)
            else f.value > c.value *. (1.0 +. b)
          in
          let verdict =
            match c.bound with
            | Some b when worse b -> incr regressions; "REGRESSION"
            | Some _ -> "ok"
            | None -> "not gated"
          in
          line
            (Printf.sprintf "%.2f" f.value)
            (Printf.sprintf "%+.1f%%" delta)
            verdict)
    (read_rows committed_path)

let () =
  let rec pairs = function
    | committed :: fresh :: rest ->
        compare_pair committed fresh;
        pairs rest
    | [] -> ()
    | [ odd ] ->
        Printf.eprintf "unpaired argument %s (expected COMMITTED FRESH pairs)\n"
          odd;
        exit 2
  in
  pairs (List.tl (Array.to_list Sys.argv));
  if !regressions > 0 then (
    Printf.printf "\n%d gated row(s) regressed or missing\n" !regressions;
    exit 1)
  else Printf.printf "\nno gated row regressed\n"
