(* Tests for the explainability layer: per-signal fitness attribution
   (missing samples, width mismatches, phi-weighted x/z scoring, and the
   exact-sum identity against the aggregate score), journal close
   idempotence, and the HTML report renderer. *)

open Logic4

let sample t values : Sim.Recorder.sample =
  { t; values = List.map (fun (n, s) -> (n, Packed.of_vec (Vec.of_string s))) values }

let oracle = Cirfix.Oracle.of_trace

let sig_score name scores =
  match List.assoc_opt name scores with
  | Some (s : Cirfix.Fitness.signal_score) -> s
  | None -> Alcotest.failf "no attribution entry for %s" name

(* --- Attribution ---------------------------------------------------------- *)

let test_missing_sample_is_all_x () =
  (* The t=15 sample is absent from the actual trace: every expected bit
     scores as an x/z mismatch (-phi each), and the signal diverges at 15. *)
  let e = [ sample 5 [ ("q", "11") ]; sample 15 [ ("q", "11") ] ] in
  let a = [ sample 5 [ ("q", "11") ] ] in
  let s = sig_score "q" (Cirfix.Fitness.score_by_signal ~phi:2.0 ~expected:(oracle e) ~actual:a) in
  Alcotest.(check (float 1e-9)) "sum" (-2.) s.s_sum;
  Alcotest.(check (float 1e-9)) "total" 6. s.s_total;
  Alcotest.(check (float 1e-9)) "fitness clamps" 0. s.s_fitness;
  Alcotest.(check (option int)) "diverges at the missing sample" (Some 15)
    s.first_divergence

let test_width_mismatch_zero_extends () =
  (* A narrower actual vector zero-extends to the expected width
     ({!Vec.resize} semantics): "111" against "0111" matches perfectly... *)
  let e = [ sample 5 [ ("q", "0111") ] ] in
  let a = [ sample 5 [ ("q", "111") ] ] in
  let s = sig_score "q" (Cirfix.Fitness.score_by_signal ~phi:2.0 ~expected:(oracle e) ~actual:a) in
  Alcotest.(check (float 1e-9)) "zero-extended match" 1.0 s.s_fitness;
  Alcotest.(check (option int)) "no divergence" None s.first_divergence;
  (* ...while "111" against "1111" mismatches exactly the high bit. *)
  let e = [ sample 5 [ ("q", "1111") ] ] in
  let s = sig_score "q" (Cirfix.Fitness.score_by_signal ~phi:2.0 ~expected:(oracle e) ~actual:a) in
  Alcotest.(check (float 1e-9)) "sum" 2. s.s_sum;
  Alcotest.(check (float 1e-9)) "total" 4. s.s_total;
  Alcotest.(check (option int)) "diverges" (Some 5) s.first_divergence

let test_phi_weighted_xz () =
  (* expected 10, actual 1x: one defined match (+1), one x mismatch
     (-phi, phi toward the total). *)
  let e = [ sample 7 [ ("q", "10") ] ] in
  let a = [ sample 7 [ ("q", "1x") ] ] in
  let s = sig_score "q" (Cirfix.Fitness.score_by_signal ~phi:2.0 ~expected:(oracle e) ~actual:a) in
  Alcotest.(check (float 1e-9)) "sum phi=2" (-1.) s.s_sum;
  Alcotest.(check (float 1e-9)) "total phi=2" 3. s.s_total;
  let s = sig_score "q" (Cirfix.Fitness.score_by_signal ~phi:1.0 ~expected:(oracle e) ~actual:a) in
  Alcotest.(check (float 1e-9)) "sum phi=1" 0. s.s_sum;
  Alcotest.(check (float 1e-9)) "total phi=1" 2. s.s_total;
  (* (x,x) is a phi-weighted match: positive contribution, no divergence. *)
  let e = [ sample 7 [ ("q", "x1") ] ] in
  let a = [ sample 7 [ ("q", "x1") ] ] in
  let s = sig_score "q" (Cirfix.Fitness.score_by_signal ~phi:2.0 ~expected:(oracle e) ~actual:a) in
  Alcotest.(check (float 1e-9)) "xx match sum" 3. s.s_sum;
  Alcotest.(check (option int)) "xx match no divergence" None s.first_divergence

let test_sums_equal_aggregate_exactly () =
  (* The aggregate score is defined as the fold of the per-signal
     breakdown, so the sums must agree bit-for-bit — even under a phi
     whose multiples are not exactly representable. *)
  let e =
    [
      sample 5 [ ("q", "1010"); ("r", "xx1") ];
      sample 15 [ ("q", "0z01"); ("r", "110") ];
      sample 25 [ ("q", "1111"); ("r", "00z") ];
    ]
  in
  let a =
    [
      sample 5 [ ("q", "1000"); ("r", "0x1") ];
      sample 15 [ ("q", "0z01") ];
      sample 25 [ ("q", "111"); ("r", "z00") ];
    ]
  in
  List.iter
    (fun phi ->
      let agg = Cirfix.Fitness.score ~phi ~expected:(oracle e) ~actual:a in
      let per = Cirfix.Fitness.score_by_signal ~phi ~expected:(oracle e) ~actual:a in
      let sum = List.fold_left (fun acc (_, s) -> acc +. s.Cirfix.Fitness.s_sum) 0. per in
      let total =
        List.fold_left (fun acc (_, s) -> acc +. s.Cirfix.Fitness.s_total) 0. per
      in
      Alcotest.(check bool)
        (Printf.sprintf "sum exact (phi=%g)" phi)
        true (agg.sum = sum);
      Alcotest.(check bool)
        (Printf.sprintf "total exact (phi=%g)" phi)
        true (agg.total = total);
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "fitness consistent (phi=%g)" phi)
        (Float.max 0. agg.sum /. agg.total)
        agg.fitness)
    [ 2.0; 0.3; 1.7 ]

let test_divergence_iff_mismatched () =
  (* first_divergence is Some _ exactly for the signals in the Alg. 2
     starting mismatch set. *)
  let e = [ sample 5 [ ("good", "11"); ("bad", "10") ] ] in
  let a = [ sample 5 [ ("good", "11"); ("bad", "11") ] ] in
  let mism = Cirfix.Fitness.mismatched_signals ~expected:(oracle e) ~actual:a in
  Alcotest.(check (list string)) "mismatch set" [ "bad" ] mism;
  let per = Cirfix.Fitness.score_by_signal ~phi:2.0 ~expected:(oracle e) ~actual:a in
  List.iter
    (fun (name, (s : Cirfix.Fitness.signal_score)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s divergence iff mismatched" name)
        (List.mem name mism)
        (s.first_divergence <> None))
    per

(* --- Journal close -------------------------------------------------------- *)

let test_journal_close_idempotent () =
  (* Closing with no sink open, and closing twice, are both no-ops. *)
  Obs.Journal.close ();
  Obs.Journal.close ();
  let path = Filename.temp_file "cirfix_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Journal.open_file path;
      Obs.Journal.emit [ ("type", Obs.Json.Str "run_end") ];
      Obs.Journal.close ();
      Obs.Journal.close ();
      Alcotest.(check bool) "disabled after close" false (Obs.Journal.enabled ());
      let contents = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check string) "one record survives"
        "{\"type\":\"run_end\"}\n" contents)

(* --- Report rendering ----------------------------------------------------- *)

let synthetic_journal =
  [
    {|{"type":"run","engine":"gp","problem":"toy","seed":1,"pop_size":4,"max_generations":2,"max_probes":10,"phi":2,"screen_races":false}|};
    {|{"type":"localization","mismatch":["q"],"iterations":2,"implicated":2,"nodes":[{"id":3,"round":1,"weight":1},{"id":5,"round":2,"weight":0.5}],"source":[{"text":"module toy;","weight":0},{"text":"assign q = 0;","weight":1}]}|};
    {|{"type":"attribution","gen":0,"fitness":0.5,"status":"simulated","signals":[{"name":"q","sum":1,"total":2,"fitness":0.5,"first_divergence":15}]}|};
    {|{"type":"generation","gen":1,"best":0.75,"median":0.5,"mean":0.5,"worst":0.25,"diversity":3,"population":4,"mutants":4,"probes":5,"lookups":5,"memo_hits":0,"compile_errors":0,"static_rejects":0,"oversize_rejects":0,"racy_rejects":0,"elapsed_s":0.01}|};
    {|{"type":"generation","gen":2,"best":1,"median":0.75,"mean":0.7,"worst":0.5,"diversity":4,"population":4,"mutants":8,"probes":9,"lookups":10,"memo_hits":1,"compile_errors":0,"static_rejects":0,"oversize_rejects":0,"racy_rejects":0,"elapsed_s":0.01}|};
    {|{"type":"attribution","gen":2,"fitness":1,"status":"simulated","signals":[{"name":"q","sum":2,"total":2,"fitness":1,"first_divergence":null}]}|};
    {|{"type":"lineage","winner":"bbbb","nodes":[{"hash":"aaaa","op":"seed","target":null,"parents":[],"gen":0,"fitness":0.5},{"hash":"bbbb","op":"template:assign_const","target":3,"parents":["aaaa"],"gen":1,"fitness":1}]}|};
    {|{"type":"result","repaired":true,"edits":1,"patch":"replace 3","generations":1,"probes":5,"lookups":5,"memo_hits":0,"mutants":4,"wall_seconds":0.1}|};
    {|{"type":"run_end","status":"repaired","evals":5,"probes":5,"memo_hits":0,"compile_errors":0,"static_rejects":0,"oversize_rejects":0,"racy_rejects":0,"runtime_races":0,"generations":1,"mutants":4}|};
  ]
  |> String.concat "\n"

let test_report_renders_all_sections () =
  let records =
    match Obs.Report.parse_journal synthetic_journal with
    | Ok r -> r
    | Error e -> Alcotest.failf "parse: %s" e
  in
  let html = Obs.Report.render records in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (let re = Str.regexp_string needle in
         try
           ignore (Str.search_forward re html 0);
           true
         with Not_found -> false))
    [
      "<h2>Run configuration</h2>";
      "<h2>Outcome</h2>";
      "Plausible repair found";
      "<h2>Fitness</h2>";
      "<polyline";
      "<h2>Evaluation breakdown</h2>";
      "<h2>Per-signal attribution</h2>";
      "first divergence";
      "<h2>Fault localization</h2>";
      "assign q = 0;";
      "<h2>Patch lineage</h2>";
      "template:assign_const";
      "winner";
    ];
  (* No timing field ever reaches the report. *)
  List.iter
    (fun absent ->
      Alcotest.(check bool) (Printf.sprintf "omits %S" absent) false
        (let re = Str.regexp_string absent in
         try
           ignore (Str.search_forward re html 0);
           true
         with Not_found -> false))
    [ "wall_seconds"; "elapsed_s" ];
  (* Deterministic: same records, same bytes. *)
  Alcotest.(check string) "stable bytes" html (Obs.Report.render records)

let test_report_empty_journal () =
  (* An empty journal renders placeholders, not a crash. *)
  let html = Obs.Report.render [] in
  Alcotest.(check bool) "placeholder" true
    (let re = Str.regexp_string "no run records" in
     try
       ignore (Str.search_forward re html 0);
       true
     with Not_found -> false)

let test_parse_journal_errors () =
  (match Obs.Report.parse_journal "{\"a\":1}\n\n{\"b\":2}\n" with
  | Ok [ _; _ ] -> ()
  | Ok _ -> Alcotest.fail "expected two records"
  | Error e -> Alcotest.failf "parse: %s" e);
  match Obs.Report.parse_journal "{\"a\":1}\nnot json\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
      Alcotest.(check bool) "names the line" true
        (String.length e >= 6 && String.sub e 0 6 = "line 2")

let () =
  Alcotest.run "explain"
    [
      ( "attribution",
        [
          Alcotest.test_case "missing sample is all-x" `Quick
            test_missing_sample_is_all_x;
          Alcotest.test_case "width mismatch zero-extends" `Quick
            test_width_mismatch_zero_extends;
          Alcotest.test_case "phi-weighted x/z" `Quick test_phi_weighted_xz;
          Alcotest.test_case "per-signal sums equal aggregate exactly" `Quick
            test_sums_equal_aggregate_exactly;
          Alcotest.test_case "divergence iff mismatched" `Quick
            test_divergence_iff_mismatched;
        ] );
      ( "journal",
        [
          Alcotest.test_case "close idempotent" `Quick
            test_journal_close_idempotent;
        ] );
      ( "report",
        [
          Alcotest.test_case "renders all sections" `Quick
            test_report_renders_all_sections;
          Alcotest.test_case "empty journal" `Quick test_report_empty_journal;
          Alcotest.test_case "parse errors" `Quick test_parse_journal_errors;
        ] );
    ]
