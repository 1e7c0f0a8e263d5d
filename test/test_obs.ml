(* Tests for the observability layer (lib/obs): histogram bucketing edges,
   span-stack imbalance detection, JSON escaping round-trips, and the
   jobs-independence contract of the repair journal. *)

open Obs

let find_exn what = function Some v -> v | None -> Alcotest.failf "%s" what

(* Pull histograms.<name> out of a Metrics.dump. *)
let hist_of_dump name dump =
  dump |> Json.member "histograms"
  |> Option.fold ~none:None ~some:(Json.member name)
  |> find_exn (Printf.sprintf "histogram %s missing from dump" name)

let int_field obj key =
  Json.member key obj
  |> Option.fold ~none:None ~some:Json.to_int_opt
  |> find_exn (Printf.sprintf "int field %s missing" key)

let bucket_count hist floor_key =
  match Json.member "buckets" hist with
  | Some (Json.Obj fields) ->
      (match List.assoc_opt floor_key fields with
      | Some (Json.Int n) -> n
      | Some _ -> Alcotest.fail "bucket count is not an int"
      | None -> 0)
  | _ -> Alcotest.fail "buckets missing from histogram"

let test_histogram_buckets () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_enabled false;
      Metrics.reset ())
    (fun () ->
      let h = Metrics.histogram "test.hist" in
      Metrics.observe h 0;
      Metrics.observe h 1;
      Metrics.observe h 5;
      (* 5 lands in the [4, 8) bucket, keyed by its floor. *)
      Metrics.observe h max_int;
      Metrics.observe h (-3);
      (* negative: rejected, not bucketed *)
      let hist = hist_of_dump "test.hist" (Metrics.dump ()) in
      Alcotest.(check int) "count excludes rejects" 4 (int_field hist "count");
      Alcotest.(check int) "rejected" 1 (int_field hist "rejected");
      Alcotest.(check int) "zero bucket" 1 (bucket_count hist "0");
      Alcotest.(check int) "one bucket" 1 (bucket_count hist "1");
      Alcotest.(check int) "floor-4 bucket" 1 (bucket_count hist "4");
      Alcotest.(check int) "max_int bucket" 1
        (bucket_count hist "2305843009213693952"))

let test_span_imbalance () =
  Trace.start ();
  Fun.protect
    ~finally:(fun () -> ignore (Trace.stop ()))
    (fun () ->
      Trace.push "outer";
      Trace.push "inner";
      Trace.pop ();
      (* "outer" is still open: it must be reported as an imbalance. *)
      let open_spans = Trace.imbalances () in
      Alcotest.(check int) "one open span" 1 (List.length open_spans);
      let mentions_outer =
        List.exists
          (fun m ->
            try
              ignore (Str.search_forward (Str.regexp_string "outer") m 0);
              true
            with Not_found -> false)
          open_spans
      in
      Alcotest.(check bool) "names the open span" true mentions_outer;
      (* Close "outer"; the stack is balanced again. *)
      Trace.pop ();
      Alcotest.(check int) "balanced after closing" 0
        (List.length (Trace.imbalances ()));
      (* A stray pop on an empty stack is flagged, not fatal. *)
      Trace.pop ();
      Alcotest.(check int) "stray pop recorded" 1
        (List.length (Trace.imbalances ())))

let test_trace_render_parses () =
  Trace.start ();
  let json =
    Fun.protect
      ~finally:(fun () -> ignore (Trace.stop ()))
      (fun () ->
        Trace.span ~cat:"test" "sp\"an\\name" (fun () -> ());
        Trace.instant ~args:[ ("k", Json.Str "line1\nline2") ] "i";
        Trace.render ())
  in
  match Json.parse json with
  | Error msg -> Alcotest.failf "trace output is not valid JSON: %s" msg
  | Ok v -> (
      match Json.member "traceEvents" v with
      | Some (Json.List events) ->
          let has name =
            List.exists
              (fun e -> Json.member "name" e = Some (Json.Str name))
              events
          in
          Alcotest.(check bool) "escaped span name survives" true
            (has "sp\"an\\name")
      | _ -> Alcotest.fail "traceEvents missing")

let test_json_escaping_roundtrip () =
  let gnarly =
    [
      "plain";
      "with \"quotes\"";
      "back\\slash";
      "new\nline and tab\t";
      "ctrl \001 char";
    ]
  in
  List.iter
    (fun s ->
      let doc = Json.Obj [ (s, Json.Str s) ] in
      match Json.parse (Json.to_string doc) with
      | Ok (Json.Obj [ (k, Json.Str v) ]) ->
          Alcotest.(check string) "key round-trips" s k;
          Alcotest.(check string) "value round-trips" s v
      | Ok _ -> Alcotest.fail "unexpected shape after round-trip"
      | Error msg -> Alcotest.failf "parse failed: %s" msg)
    gnarly

(* The journal must be byte-identical across [jobs] once wall-clock fields
   are stripped: records are derived only from sequentially-committed
   state. This is the cross-process analogue of Gp's determinism test. *)
(* Run [f] with a journal open; its result and the journal's contents. *)
let with_journal f =
  let path = Filename.temp_file "cirfix-journal" ".jsonl" in
  Journal.open_file path;
  let r = Fun.protect ~finally:(fun () -> Journal.close ()) f in
  let s = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (s, r)

let journal_of (search : Cirfix.Config.t -> Cirfix.Problem.t -> unit) ~jobs =
  let problem = Bench_suite.Defects.problem (Bench_suite.Defects.find 3) in
  let cfg =
    {
      Cirfix.Config.default with
      jobs;
      seed = 1;
      pop_size = 20;
      max_generations = 3;
      max_probes = 300;
      max_wall_seconds = 600.0;
    }
  in
  fst (with_journal (fun () -> search cfg problem))

(* A repair whose slicing engages: i2c #18's watchdog lies outside the
   mismatch cone. At seed 2 it repairs within the budget, so the run
   exercises the stitched acceptance gate and whole-design minimization. *)
let sliced_repair ~jobs =
  let d = Bench_suite.Defects.find 18 in
  let cfg =
    {
      (Bench_suite.Runner.scenario_config d) with
      jobs;
      seed = 2;
      max_probes = 400;
      max_wall_seconds = 600.0;
    }
  in
  with_journal (fun () -> Cirfix.Gp.repair cfg (Bench_suite.Defects.problem d))

let sliced_j1 = lazy (sliced_repair ~jobs:1)

let journal_of_repair =
  journal_of (fun cfg p -> ignore (Cirfix.Gp.repair cfg p))

let journal_of_brute =
  journal_of (fun cfg p ->
      ignore (Cirfix.Brute_force.search ~max_depth:1 cfg p))

(* Blank out the documented timing fields, the only jobs-dependent bytes. *)
let strip_walls s =
  s
  |> Str.global_replace (Str.regexp "\"elapsed_s\":[0-9.eE+-]+") "\"elapsed_s\":X"
  |> Str.global_replace
       (Str.regexp "\"wall_seconds\":[0-9.eE+-]+")
       "\"wall_seconds\":X"

let test_journal_determinism () =
  let j1 = strip_walls (journal_of_repair ~jobs:1) in
  let j4 = strip_walls (journal_of_repair ~jobs:4) in
  Alcotest.(check bool) "journal has records" true (String.length j1 > 0);
  Alcotest.(check string) "journal identical for jobs=1 and jobs=4" j1 j4;
  (* The explainability records ride the same determinism contract; make
     sure they are actually present in what we just compared. *)
  List.iter
    (fun t ->
      let needle = Printf.sprintf "\"type\":\"%s\"" t in
      Alcotest.(check bool) (Printf.sprintf "has %s record" t) true
        (try
           ignore (Str.search_forward (Str.regexp_string needle) j1 0);
           true
         with Not_found -> false))
    [ "attribution"; "localization"; "lineage"; "funnel"; "run_end" ]

(* Digest a journal string into its last funnel record (per-operator rows)
   and last run_end record. *)
let funnel_and_end journal =
  let records, skipped = Aggregate.parse_lenient journal in
  Alcotest.(check int) "no skipped lines in a clean journal" 0 skipped;
  let funnel =
    find_exn "funnel record" (Report.last_of_type "funnel" records)
  in
  let run_end =
    find_exn "run_end record" (Report.last_of_type "run_end" records)
  in
  (Aggregate.run_of_records records skipped, funnel, run_end)

(* The whole-journal byte compare above already implies this, but pin the
   per-operator counts explicitly: the funnel is the record most tempting
   to compute from parallel (commit-order-dependent) state. *)
let test_funnel_determinism () =
  let digest j =
    let run, _, _ = funnel_and_end j in
    run.Aggregate.r_funnel
  in
  let f1 = digest (journal_of_repair ~jobs:1) in
  let f4 = digest (journal_of_repair ~jobs:4) in
  Alcotest.(check bool) "funnel has operator rows" true (List.length f1 > 0);
  Alcotest.(check (list string))
    "same operators for jobs=1 and jobs=4" (List.map fst f1) (List.map fst f4);
  List.iter2
    (fun (op, (a : Aggregate.funnel_row)) ((_, b) : string * Aggregate.funnel_row) ->
      Alcotest.(check (list int))
        (Printf.sprintf "counts for %s match across jobs" op)
        [
          a.fu_proposed; a.fu_evaluated; a.fu_screened; a.fu_pruned;
          a.fu_simulated; a.fu_survived; a.fu_lineage;
        ]
        [
          b.fu_proposed; b.fu_evaluated; b.fu_screened; b.fu_pruned;
          b.fu_simulated; b.fu_survived; b.fu_lineage;
        ])
    f1 f4

(* Funnel totals must tile the run_end counters exactly: every evaluator
   outcome is charged to exactly one operator row, so the per-stage sums
   reconcile with the run-wide counts (no double counting, no leaks). *)
let check_funnel_reconciliation journal =
  let run, funnel, run_end = funnel_and_end journal in
  let ops = Report.list_of "operators" funnel in
  let total f = List.fold_left (fun acc o -> acc + Report.i_of f o) 0 ops in
  let e f = Report.i_of f run_end in
  Alcotest.(check int) "evaluated tiles evals" (e "evals") (total "evaluated");
  Alcotest.(check int) "simulated tiles probes" (e "probes")
    (total "simulated");
  let group ks =
    List.fold_left (fun acc k -> acc + e (Cirfix.Evaluate.name k)) 0 ks
  in
  Alcotest.(check int) "screened tiles the screened group"
    (group Cirfix.Evaluate.screened) (total "screened");
  Alcotest.(check int) "pruned tiles the pruned group"
    (group Cirfix.Evaluate.pruned) (total "pruned");
  (* The run_end convenience totals are the same sums. *)
  Alcotest.(check int) "proposed total" (e "proposed") (total "proposed");
  Alcotest.(check int) "survived total" (e "survived") (total "survived");
  Alcotest.(check int) "in_lineage total" (e "in_lineage")
    (total "in_lineage");
  Alcotest.(check bool) "digest saw a complete run" true
    run.Aggregate.r_complete;
  List.map (Report.s_of "op") ops

let test_funnel_reconciliation () =
  ignore (check_funnel_reconciliation (journal_of_repair ~jobs:1));
  (* On an engaged slice the funnel tiles the search evaluator's counters;
     the whole-design seed and stitched verifies stay off it. *)
  let journal, (r : Cirfix.Gp.result) = Lazy.force sliced_j1 in
  Alcotest.(check bool) "slicing engaged" true r.sliced;
  ignore (check_funnel_reconciliation journal);
  let records, _ = Aggregate.parse_lenient journal in
  Alcotest.(check bool) "slice record present" true
    (Report.last_of_type "slice" records <> None);
  let run_end =
    find_exn "run_end record" (Report.last_of_type "run_end" records)
  in
  Alcotest.(check int) "slice_sims = probes" (Report.i_of "probes" run_end)
    (Report.i_of "slice_sims" run_end);
  Alcotest.(check int) "stitched_verifies" r.stitched_verifies
    (Report.i_of "stitched_verifies" run_end)

(* An engaged slice keeps the jobs-independence contract: the same
   counters, stitched verifies and minimized patch at -j 1 and -j 2. *)
let test_sliced_determinism () =
  let _, (r1 : Cirfix.Gp.result) = Lazy.force sliced_j1 in
  let _, (r2 : Cirfix.Gp.result) = sliced_repair ~jobs:2 in
  Alcotest.(check bool) "repaired" true (r1.minimized <> None);
  let counts (r : Cirfix.Gp.result) =
    r.stitched_verifies
    :: List.map (Cirfix.Evaluate.get r.counters) Cirfix.Evaluate.all_counters
  in
  Alcotest.(check (list int)) "same counters" (counts r1) (counts r2);
  Alcotest.(check (option string))
    "same minimized patch"
    (Option.map Cirfix.Patch.to_string r1.minimized)
    (Option.map Cirfix.Patch.to_string r2.minimized)

(* Both engines' [run_end] records carry the whole counter table: every
   counter's key exactly once, in table order (lookups under "evals"). *)
let test_run_end_counters () =
  let expected =
    List.map
      (fun k ->
        match k with
        | Cirfix.Evaluate.Lookups -> "evals"
        | k -> Cirfix.Evaluate.name k)
      Cirfix.Evaluate.all_counters
  in
  List.iter
    (fun (engine, journal) ->
      let records, _ = Aggregate.parse_lenient journal in
      let keys =
        match Report.last_of_type "run_end" records with
        | Some (Json.Obj fields) -> List.map fst fields
        | _ -> Alcotest.failf "%s: no run_end record" engine
      in
      Alcotest.(check (list string))
        (engine ^ " run_end counter keys")
        expected
        (List.filter (fun k -> List.mem k expected) keys))
    [ ("gp", journal_of_repair ~jobs:1); ("brute", journal_of_brute ~jobs:1) ]

(* Crash resilience: a journal whose writer died mid-record must still
   load. The single-run reader accepts a truncated FINAL line (and only
   that); the corpus reader skips and counts every bad line. *)
let test_truncated_journal () =
  let good =
    {|{"type":"run","engine":"gp","problem":"p","seed":1,"pop_size":2,"max_generations":1,"max_probes":9,"phi":2.0,"screen_mutants":true,"screen_races":false,"check_races":false,"prune":true,"check_pruning":false,"backend":"auto","slice":false}
{"type":"generation","gen":1,"best":0.5,"median":0.5,"mean":0.5,"worst":0.0,"diversity":1,"population":2,"mutants":2,"probes":2,"lookups":2,"memo_hits":0,"compile_errors":0,"static_rejects":0,"oversize_rejects":0,"racy_rejects":0,"semantic_hits":0,"dead_edit_skips":0,"elapsed_s":0.1}
|}
  in
  let truncated = good ^ {|{"type":"run_end","status":"repai|} in
  (match Report.parse_journal truncated with
  | Ok records ->
      Alcotest.(check int) "truncated final line is dropped" 2
        (List.length records)
  | Error e -> Alcotest.failf "parse_journal rejected truncated tail: %s" e);
  (* Mid-file garbage is a hard error for the single-run reader... *)
  (match Report.parse_journal (truncated ^ "\n" ^ good) with
  | Ok _ -> Alcotest.fail "parse_journal accepted mid-file garbage"
  | Error _ -> ());
  (* ...but the corpus reader just counts it and keeps going. *)
  let records, skipped = Aggregate.parse_lenient (truncated ^ "\n" ^ good) in
  Alcotest.(check int) "lenient parse skips the bad line" 1 skipped;
  Alcotest.(check int) "lenient parse keeps the good lines" 4
    (List.length records);
  let run = Aggregate.run_of_records records skipped in
  Alcotest.(check bool) "digest records the skip" true
    (run.Aggregate.r_skipped_lines = 1);
  Alcotest.(check int) "trajectory survives" 2
    (List.length run.Aggregate.r_trajectory)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [ Alcotest.test_case "histogram bucket edges" `Quick
            test_histogram_buckets ] );
      ( "trace",
        [
          Alcotest.test_case "span imbalance" `Quick test_span_imbalance;
          Alcotest.test_case "render parses with gnarly names" `Quick
            test_trace_render_parses;
        ] );
      ( "json",
        [ Alcotest.test_case "escaping round-trip" `Quick
            test_json_escaping_roundtrip ] );
      ( "journal",
        [
          Alcotest.test_case "jobs-independent" `Slow test_journal_determinism;
          Alcotest.test_case "truncated tail tolerated" `Quick
            test_truncated_journal;
        ] );
      ( "funnel",
        [
          Alcotest.test_case "jobs-independent counts" `Slow
            test_funnel_determinism;
          Alcotest.test_case "totals reconcile with run_end" `Slow
            test_funnel_reconciliation;
          Alcotest.test_case "run_end carries every counter" `Slow
            test_run_end_counters;
          Alcotest.test_case "sliced run jobs-independent" `Slow
            test_sliced_determinism;
        ] );
    ]
