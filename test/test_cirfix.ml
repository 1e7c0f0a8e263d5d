(* Tests for the repair engine: the hardware fitness function, Algorithm 2
   fault localization, all repair templates, patch application, crossover,
   delta-debugging minimization, the oracle utilities, the statistics
   toolkit, and an end-to-end GP repair of the paper's motivating defect. *)

open Logic4

let sample t values : Sim.Recorder.sample =
  { t; values = List.map (fun (n, s) -> (n, Packed.of_vec (Vec.of_string s))) values }

let oracle = Cirfix.Oracle.of_trace

(* --- Fitness (paper Sec. 3.2) --------------------------------------------- *)

let test_fitness_perfect () =
  let tr = [ sample 5 [ ("q", "1010") ]; sample 15 [ ("q", "0001") ] ] in
  Alcotest.(check (float 1e-9)) "identical" 1.0
    (Cirfix.Fitness.fitness ~phi:2.0 ~expected:(oracle tr) ~actual:tr)

let test_fitness_xz_match_counts_phi () =
  (* (x,x) matches contribute phi to both sum and total: still 1.0. *)
  let tr = [ sample 5 [ ("q", "xx10") ] ] in
  Alcotest.(check (float 1e-9)) "xx match" 1.0
    (Cirfix.Fitness.fitness ~phi:2.0 ~expected:(oracle tr) ~actual:tr)

let test_fitness_formula_values () =
  (* expected 1010, actual 1000: 3 bit matches (+3), 1 mismatch (-1),
     total 4 -> (3-1)/4 = 0.5. *)
  let e = [ sample 5 [ ("q", "1010") ] ] in
  let a = [ sample 5 [ ("q", "1000") ] ] in
  Alcotest.(check (float 1e-9)) "binary mismatch" 0.5
    (Cirfix.Fitness.fitness ~phi:2.0 ~expected:(oracle e) ~actual:a);
  (* expected 10, actual 1x with phi=2: match +1, x-mismatch -2;
     sum=-1 -> clamped to 0. *)
  let e = [ sample 5 [ ("q", "10") ] ] in
  let a = [ sample 5 [ ("q", "1x") ] ] in
  Alcotest.(check (float 1e-9)) "x penalty clamps" 0.0
    (Cirfix.Fitness.fitness ~phi:2.0 ~expected:(oracle e) ~actual:a);
  (* same comparison with phi=1: sum = 1-1 = 0, total 2 -> 0. *)
  Alcotest.(check (float 1e-9)) "phi=1" 0.0
    (Cirfix.Fitness.fitness ~phi:1.0 ~expected:(oracle e) ~actual:a);
  (* expected 110, actual 1x0: +1 +1 -phi = 2-2=0, total 4 -> 0/4. *)
  let e = [ sample 5 [ ("q", "110") ] ] in
  let a = [ sample 5 [ ("q", "1x0") ] ] in
  Alcotest.(check (float 1e-9)) "partial x" 0.0
    (Cirfix.Fitness.fitness ~phi:2.0 ~expected:(oracle e) ~actual:a);
  (* phi weighting direction: larger phi hurts more. With a wider vector
     11110 vs 1111x: phi=2 -> (4-2)/6 = 1/3. *)
  let e = [ sample 5 [ ("q", "11110") ] ] in
  let a = [ sample 5 [ ("q", "1111x") ] ] in
  Alcotest.(check (float 1e-9)) "phi=2 wider" (2. /. 6.)
    (Cirfix.Fitness.fitness ~phi:2.0 ~expected:(oracle e) ~actual:a);
  Alcotest.(check (float 1e-9)) "phi=3 wider" (1. /. 7.)
    (Cirfix.Fitness.fitness ~phi:3.0 ~expected:(oracle e) ~actual:a)

let test_fitness_missing_sample () =
  (* A missing timestamp scores as all-x for that sample. *)
  let e = [ sample 5 [ ("q", "11") ]; sample 15 [ ("q", "11") ] ] in
  let a = [ sample 5 [ ("q", "11") ] ] in
  (* t=5: +2; t=15: -2*phi = -4; sum=-2 -> 0 *)
  Alcotest.(check (float 1e-9)) "missing" 0.0
    (Cirfix.Fitness.fitness ~phi:2.0 ~expected:(oracle e) ~actual:a);
  (* And a missing signal within a sample behaves the same way. *)
  let a2 = [ sample 5 [ ("other", "11") ]; sample 15 [ ("q", "11") ] ] in
  let f = Cirfix.Fitness.fitness ~phi:2.0 ~expected:(oracle e) ~actual:a2 in
  Alcotest.(check bool) "missing signal penalized" true (f < 1.0)

let test_fitness_z_cases () =
  (* (z,z) is a phi-weighted match; (z,0) is a phi-weighted mismatch. *)
  let e = [ sample 1 [ ("q", "z") ] ] in
  Alcotest.(check (float 1e-9)) "zz" 1.0
    (Cirfix.Fitness.fitness ~phi:2.0 ~expected:(oracle e)
       ~actual:[ sample 1 [ ("q", "z") ] ]);
  Alcotest.(check (float 1e-9)) "z0" 0.0
    (Cirfix.Fitness.fitness ~phi:2.0 ~expected:(oracle e)
       ~actual:[ sample 1 [ ("q", "0") ] ]);
  (* (x,z): both undefined but different -> treated as x/z mismatch. *)
  Alcotest.(check (float 1e-9)) "xz differ" 0.0
    (Cirfix.Fitness.fitness ~phi:2.0
       ~expected:(oracle [ sample 1 [ ("q", "x") ] ])
       ~actual:[ sample 1 [ ("q", "z") ] ])

let test_mismatched_signals () =
  let e = [ sample 5 [ ("a", "10"); ("b", "11") ]; sample 15 [ ("a", "10"); ("b", "00") ] ] in
  let a = [ sample 5 [ ("a", "10"); ("b", "11") ]; sample 15 [ ("a", "10"); ("b", "01") ] ] in
  Alcotest.(check (list string)) "only b" [ "b" ]
    (Cirfix.Fitness.mismatched_signals ~expected:(oracle e) ~actual:a);
  Alcotest.(check (list string)) "none" []
    (Cirfix.Fitness.mismatched_signals ~expected:(oracle e) ~actual:e)

(* --- Fault localization (Algorithm 2) -------------------------------------- *)

let counter_module () =
  match Verilog.Parser.parse_design_result (Corpus.read "counter.v") with
  | Ok [ m ] -> m
  | _ -> Alcotest.fail "parse counter"

let test_fault_loc_counter () =
  (* The paper's walkthrough: starting from overflow_out, the assignment to
     overflow_out is implicated (Impl-Data), the wrapping if-statement
     (Impl-Ctrl) brings counter_out into the mismatch set (Add-Child), and
     the fixed point transitively reaches reset and enable. *)
  let m = counter_module () in
  let r = Cirfix.Fault_loc.localize m ~mismatch:[ "overflow_out" ] in
  let names = Cirfix.Fault_loc.NameSet.elements r.mismatch in
  Alcotest.(check (list string)) "transitive mismatch"
    [ "counter_out"; "enable"; "overflow_out"; "reset" ]
    names;
  Alcotest.(check bool) "multiple rounds" true (r.iterations >= 2);
  (* Every assignment to overflow_out and counter_out is implicated. *)
  let fl_stmts = Cirfix.Fault_loc.fl_statements m r in
  let assigned =
    List.concat_map
      (fun (s : Verilog.Ast.stmt) ->
        match s.Verilog.Ast.s with
        | Verilog.Ast.Nonblocking (lhs, _, _) ->
            Verilog.Ast_utils.lvalue_base lhs
        | _ -> [])
      fl_stmts
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "implicated assignments"
    [ "counter_out"; "overflow_out" ]
    assigned

let test_fault_loc_empty_mismatch () =
  let m = counter_module () in
  let r = Cirfix.Fault_loc.localize m ~mismatch:[] in
  Alcotest.(check int) "empty fl" 0 (Cirfix.Fault_loc.IdSet.cardinal r.fl)

let test_fault_loc_unrelated_name () =
  let m = counter_module () in
  let r = Cirfix.Fault_loc.localize m ~mismatch:[ "not_a_signal" ] in
  Alcotest.(check int) "no implication" 0 (Cirfix.Fault_loc.IdSet.cardinal r.fl)

let test_fault_loc_cont_assign () =
  (* Continuous assignments participate in the dataflow. *)
  let m =
    match
      Verilog.Parser.parse_design_result
        "module m(o); output o; wire o; wire t; reg r;\n\
         assign o = t;\n\
         assign t = r;\n\
         endmodule"
    with
    | Ok [ m ] -> m
    | _ -> Alcotest.fail "parse"
  in
  let r = Cirfix.Fault_loc.localize m ~mismatch:[ "o" ] in
  Alcotest.(check bool) "reaches r through t" true
    (Cirfix.Fault_loc.NameSet.mem "r" r.mismatch)

(* --- Templates (paper Table 1) --------------------------------------------- *)

let stmt_by pred m =
  List.find (fun (s : Verilog.Ast.stmt) -> pred s.Verilog.Ast.s)
    (Verilog.Ast_utils.stmts_of_module m)

let test_template_negate () =
  let m = counter_module () in
  let target =
    stmt_by (function Verilog.Ast.If _ -> true | _ -> false) m
  in
  match
    Cirfix.Templates.apply Cirfix.Templates.Negate_conditional m
      ~target:target.Verilog.Ast.sid
  with
  | None -> Alcotest.fail "did not apply"
  | Some m' ->
      let s = Verilog.Pp.module_to_string m' in
      Alcotest.(check bool) "negation appears" true
        (Str.string_match (Str.regexp ".*(!(.*") s 0
        ||
        (* fallback textual check *)
        let re = Str.regexp_string "(!" in
        (try ignore (Str.search_forward re s 0); true with Not_found -> false))

let test_template_sensitivity_replace () =
  let m = counter_module () in
  let target =
    stmt_by (function Verilog.Ast.EventCtrl _ -> true | _ -> false) m
  in
  let tid = target.Verilog.Ast.sid in
  let printed tpl signal =
    match Cirfix.Templates.apply tpl ?signal m ~target:tid with
    | None -> Alcotest.fail "did not apply"
    | Some m' -> Verilog.Pp.module_to_string m'
  in
  let contains hay needle =
    try ignore (Str.search_forward (Str.regexp_string needle) hay 0); true
    with Not_found -> false
  in
  Alcotest.(check bool) "negedge" true
    (contains (printed Cirfix.Templates.Sens_negedge (Some "clk")) "@(negedge clk)");
  Alcotest.(check bool) "posedge" true
    (contains (printed Cirfix.Templates.Sens_posedge (Some "reset")) "@(posedge reset)");
  Alcotest.(check bool) "level" true
    (contains (printed Cirfix.Templates.Sens_level (Some "enable")) "@(enable)");
  Alcotest.(check bool) "star" true
    (contains (printed Cirfix.Templates.Sens_any_change None) "@(*)")

let test_template_sensitivity_add () =
  let m = counter_module () in
  let target =
    stmt_by (function Verilog.Ast.EventCtrl _ -> true | _ -> false) m
  in
  let tid = target.Verilog.Ast.sid in
  (match
     Cirfix.Templates.apply Cirfix.Templates.Sens_add_posedge
       ~signal:"reset" m ~target:tid
   with
  | None -> Alcotest.fail "add did not apply"
  | Some m' ->
      let s = Verilog.Pp.module_to_string m' in
      Alcotest.(check bool) "added" true
        (try
           ignore
             (Str.search_forward
                (Str.regexp_string "@(posedge clk or posedge reset)")
                s 0);
           true
         with Not_found -> false));
  (* Adding an edge that is already present is a no-op (None). *)
  Alcotest.(check bool) "duplicate rejected" true
    (Cirfix.Templates.apply Cirfix.Templates.Sens_add_posedge ~signal:"clk" m
       ~target:tid
    = None)

let test_template_assignment_kind () =
  let m = counter_module () in
  let nb =
    stmt_by (function Verilog.Ast.Nonblocking _ -> true | _ -> false) m
  in
  (match
     Cirfix.Templates.apply Cirfix.Templates.To_blocking m
       ~target:nb.Verilog.Ast.sid
   with
  | Some m' -> (
      match Verilog.Ast_utils.find_stmt m' nb.Verilog.Ast.sid with
      | Some { Verilog.Ast.s = Verilog.Ast.Blocking _; _ } -> ()
      | _ -> Alcotest.fail "not blocking now")
  | None -> Alcotest.fail "to_blocking did not apply");
  (* To_nonblocking on an already-nonblocking statement does not apply. *)
  Alcotest.(check bool) "wrong kind rejected" true
    (Cirfix.Templates.apply Cirfix.Templates.To_nonblocking m
       ~target:nb.Verilog.Ast.sid
    = None)

let test_template_numeric () =
  let m = counter_module () in
  (* Pick the literal in "counter_out + 1". *)
  let target =
    List.find_map
      (fun (e : Verilog.Ast.expr) ->
        match e.Verilog.Ast.e with
        | Verilog.Ast.IntLit 1 -> Some e.Verilog.Ast.eid
        | _ -> None)
      (Verilog.Ast_utils.exprs_of_module m)
    |> Option.get
  in
  match Cirfix.Templates.apply Cirfix.Templates.Increment_value m ~target with
  | None -> Alcotest.fail "increment did not apply"
  | Some m' ->
      let s = Verilog.Pp.module_to_string m' in
      Alcotest.(check bool) "has (1 + 1)" true
        (try ignore (Str.search_forward (Str.regexp_string "(1 + 1)") s 0); true
         with Not_found -> false)

let test_template_eligibility () =
  let m = counter_module () in
  List.iter
    (fun tpl ->
      let targets = Cirfix.Templates.eligible_targets tpl m in
      (* The counter has ifs, an always block, NBAs, and literals, but no
         blocking assignments: every template except To_nonblocking finds
         targets. *)
      let expect_targets = tpl <> Cirfix.Templates.To_nonblocking in
      Alcotest.(check bool)
        (Cirfix.Templates.to_string tpl ^ " targets")
        expect_targets (targets <> []))
    Cirfix.Templates.all;
  Alcotest.(check int) "eleven templates" 11 (List.length Cirfix.Templates.all)

let test_template_categories () =
  let cats =
    List.map Cirfix.Templates.defect_category Cirfix.Templates.all
    |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "four categories (Table 1)"
    [ "Assignments"; "Conditionals"; "Numeric"; "Sensitivity Lists" ]
    cats

(* --- Patches ---------------------------------------------------------------- *)

let test_patch_apply_and_noop () =
  let m = counter_module () in
  let s =
    stmt_by (function Verilog.Ast.Nonblocking _ -> true | _ -> false) m
  in
  let p = [ Cirfix.Patch.Delete s.Verilog.Ast.sid ] in
  let m' = Cirfix.Patch.apply m p in
  Alcotest.(check bool) "deleted" true
    (match Verilog.Ast_utils.find_stmt m' s.Verilog.Ast.sid with
    | Some { Verilog.Ast.s = Verilog.Ast.Null; _ } -> true
    | _ -> false);
  (* An edit whose target does not exist is skipped, not an error. *)
  let m'' = Cirfix.Patch.apply m [ Cirfix.Patch.Delete 424242 ] in
  Alcotest.(check string) "noop leaves module unchanged"
    (Verilog.Pp.module_to_string m)
    (Verilog.Pp.module_to_string m'')

let test_patch_digest_collapses () =
  let m = counter_module () in
  let s =
    stmt_by (function Verilog.Ast.Nonblocking _ -> true | _ -> false) m
  in
  (* Patch + inverse-ish no-op edits materialize identically. *)
  let d1 = Cirfix.Patch.digest m [ Cirfix.Patch.Delete s.Verilog.Ast.sid ] in
  let d2 =
    Cirfix.Patch.digest m
      [ Cirfix.Patch.Delete 424242; Cirfix.Patch.Delete s.Verilog.Ast.sid ]
  in
  Alcotest.(check string) "same digest" d1 d2

let test_crossover () =
  let rng = Random.State.make [| 7 |] in
  let a = [ Cirfix.Patch.Delete 1; Cirfix.Patch.Delete 2 ] in
  let b = [ Cirfix.Patch.Delete 10; Cirfix.Patch.Delete 20; Cirfix.Patch.Delete 30 ] in
  for _ = 1 to 50 do
    let c1, c2 = Cirfix.Mutate.crossover rng a b in
    (* Total genetic material is conserved. *)
    Alcotest.(check int) "conserved"
      (List.length a + List.length b)
      (List.length c1 + List.length c2)
  done;
  let c1, c2 = Cirfix.Mutate.crossover rng [] [] in
  Alcotest.(check bool) "empty ok" true (c1 = [] && c2 = [])

(* --- Minimization (ddmin) ---------------------------------------------------- *)

let test_ddmin_basic () =
  (* Failing iff the subset contains both 3 and 7. *)
  let test subset = List.mem 3 subset && List.mem 7 subset in
  let result = Cirfix.Minimize.ddmin test [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check (list int)) "one-minimal" [ 3; 7 ] (List.sort compare result)

let test_ddmin_single () =
  let test subset = List.mem 5 subset in
  Alcotest.(check (list int)) "singleton" [ 5 ]
    (Cirfix.Minimize.ddmin test [ 9; 5; 1 ])

let test_ddmin_empty_passes () =
  (* If the empty set already "fails", the minimum is empty. *)
  let test _ = true in
  Alcotest.(check (list int)) "empty" [] (Cirfix.Minimize.ddmin test [ 1; 2 ])

let test_ddmin_all_needed () =
  let items = [ 1; 2; 3; 4 ] in
  let test subset = List.length subset = 4 in
  Alcotest.(check (list int)) "irreducible" items
    (List.sort compare (Cirfix.Minimize.ddmin test items))

(* --- Oracle ------------------------------------------------------------------ *)

let test_oracle_thin () =
  let tr = oracle (List.init 8 (fun i -> sample (i * 10) [ ("q", "1") ])) in
  let half = Cirfix.Oracle.thin ~keep:2 tr in
  Alcotest.(check int) "half" 4 (Cirfix.Oracle.length half);
  Alcotest.(check int) "quarter" 2
    (Cirfix.Oracle.length (Cirfix.Oracle.thin ~keep:4 tr));
  Alcotest.(check int) "keep 1 = all" 8
    (Cirfix.Oracle.length (Cirfix.Oracle.thin ~keep:1 tr));
  Alcotest.(check (float 1e-9)) "coverage" 0.5
    (Cirfix.Oracle.coverage ~full:tr half)

let test_oracle_csv () =
  let tr =
    [ sample 5 [ ("a", "10"); ("b", "x") ]; sample 15 [ ("a", "11"); ("b", "0") ] ]
  in
  let tr2 =
    Cirfix.Oracle.to_trace (Cirfix.Oracle.of_csv (Cirfix.Oracle.to_csv (oracle tr)))
  in
  Alcotest.(check int) "length" 2 (List.length tr2);
  let s = List.nth tr2 1 in
  Alcotest.(check int) "time" 15 s.Sim.Recorder.t;
  Alcotest.(check string) "value" "11"
    (Vec.to_string (Packed.to_vec (List.assoc "a" s.values)));
  Alcotest.check_raises "bad header"
    (Cirfix.Oracle.Oracle_error "csv header must start with 'time'")
    (fun () -> ignore (Cirfix.Oracle.of_csv "a,b\n1,0"));
  (* Bad cells name their row (a line of the text) and column. *)
  Alcotest.check_raises "bad digit"
    (Cirfix.Oracle.Oracle_error "csv row 2, column a: bad value \"2\"")
    (fun () -> ignore (Cirfix.Oracle.of_csv "time,a\n5,2"));
  Alcotest.check_raises "empty cell"
    (Cirfix.Oracle.Oracle_error "csv row 2, column b: bad value \"\"")
    (fun () -> ignore (Cirfix.Oracle.of_csv "time,a,b\n5,1,"));
  Alcotest.check_raises "width changes"
    (Cirfix.Oracle.Oracle_error "csv row 3, column a: width 1, but width 2 in row 2")
    (fun () -> ignore (Cirfix.Oracle.of_csv "time,a\n5,01\n15,1"));
  (* A 70-bit column (past the 61-bit plane limit) with x/z round-trips. *)
  let wide = "1x" ^ String.make 60 '0' ^ "z0101xz1" in
  let tr = [ sample 5 [ ("w", wide); ("n", "x1") ]; sample 15 [ ("w", String.make 70 'z'); ("n", "01") ] ] in
  let o = oracle tr in
  Alcotest.(check string) "70-bit csv" (Cirfix.Oracle.to_csv o)
    (Cirfix.Oracle.to_csv (Cirfix.Oracle.of_csv (Cirfix.Oracle.to_csv o)));
  Alcotest.(check bool) "70-bit oracle" true
    (Cirfix.Oracle.of_csv (Cirfix.Oracle.to_csv o) = o);
  Alcotest.(check string) "70-bit value" wide
    (Vec.to_string
       (Packed.to_vec (List.assoc "w" (List.hd (Cirfix.Oracle.to_trace o)).values)))

(* --- Statistics ----------------------------------------------------------------- *)

let test_stats_descriptive () =
  Alcotest.(check (float 1e-9)) "mean" 2.5
    (Cirfix.Stats.mean [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5
    (Cirfix.Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 1e-9)) "median odd" 3.
    (Cirfix.Stats.median [ 5.; 1.; 3. ]);
  Alcotest.(check bool) "stddev" true
    (abs_float (Cirfix.Stats.stddev [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] -. 2.138) < 0.01)

let test_stats_kv_table () =
  (* Column widths are recomputed from the rows: a label longer than every
     value column (here the lane counters) must not shear the alignment,
     and annotations after a two-space gap form a third column. *)
  let rows =
    [
      ("probes", "26");
      ("memo hits", "35  (57.4% of evals)");
      ("semantic hits", "4  (6.6% of evals)");
      ("dead-edit skips", "117  (19.2% of evals)");
    ]
  in
  let t = Cirfix.Stats.kv_table rows in
  Alcotest.(check string) "widths recomputed"
    ("  probes            26\n"
   ^ "  memo hits         35  (57.4% of evals)\n"
   ^ "  semantic hits      4  (6.6% of evals)\n"
   ^ "  dead-edit skips  117  (19.2% of evals)")
    t;
  (* Degenerate shapes: single row, and a label longer than any value. *)
  Alcotest.(check string) "single row" "  a  1" (Cirfix.Stats.kv_table [ ("a", "1") ]);
  Alcotest.(check string) "long label"
    "  a-very-long-counter-name  7"
    (Cirfix.Stats.kv_table [ ("a-very-long-counter-name", "7") ])

let test_stats_ranks () =
  let r = Cirfix.Stats.ranks [| 10.; 20.; 20.; 30. |] in
  Alcotest.(check (array (float 1e-9))) "tied ranks" [| 1.; 2.5; 2.5; 4. |] r

let test_stats_mwu () =
  (* Clearly different samples give a small p; identical give p near 1. *)
  let a = [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8. ] in
  let b = [ 101.; 102.; 103.; 104.; 105.; 106.; 107.; 108. ] in
  let r = Cirfix.Stats.mann_whitney_u a b in
  Alcotest.(check bool) "separated p < 0.01" true (r.p_two_tailed < 0.01);
  let r2 = Cirfix.Stats.mann_whitney_u a a in
  Alcotest.(check bool) "identical p high" true (r2.p_two_tailed > 0.9);
  let r3 = Cirfix.Stats.mann_whitney_u [] a in
  Alcotest.(check bool) "empty gives nan" true (Float.is_nan r3.p_two_tailed)

(* --- End to end: repair the paper's motivating defect ------------------------- *)

let motivating_problem () =
  let d = Bench_suite.Defects.find 4 in
  Bench_suite.Defects.problem d

let test_gp_repairs_counter () =
  let problem = motivating_problem () in
  let cfg seed =
    {
      Cirfix.Config.default with
      seed;
      pop_size = 60;
      max_generations = 40;
      max_probes = 8000;
      max_wall_seconds = 60.0;
    }
  in
  (* As in the evaluation harness, run independent seeded trials and stop
     at the first plausible repair. *)
  let rec attempt seed =
    let r = Cirfix.Gp.repair (cfg seed) problem in
    if r.minimized <> None || seed >= 3 then r else attempt (seed + 1)
  in
  let r = attempt 1 in
  (* The faulty counter scores ~0.58 initially (paper Sec. 2 reports 0.58). *)
  Alcotest.(check bool) "initial fitness near paper's 0.58" true
    (r.initial_fitness > 0.45 && r.initial_fitness < 0.70);
  Alcotest.(check bool) "repaired" true (r.minimized <> None);
  (* The minimized patch yields fitness 1.0 when re-evaluated. *)
  match (r.minimized, r.repaired_module) with
  | Some _, Some m ->
      let ev = Cirfix.Evaluate.create (cfg 1) problem in
      let o = Cirfix.Evaluate.eval_module ev m in
      Alcotest.(check (float 1e-9)) "plausible" 1.0 o.fitness
  | _ -> Alcotest.fail "no repaired module"

let test_gp_deterministic () =
  let problem = motivating_problem () in
  let cfg =
    { Cirfix.Config.default with seed = 3; max_probes = 300; max_generations = 5 }
  in
  let r1 = Cirfix.Gp.repair cfg problem in
  let r2 = Cirfix.Gp.repair cfg problem in
  Alcotest.(check int) "same probes"
    (Cirfix.Evaluate.get r1.counters Probes)
    (Cirfix.Evaluate.get r2.counters Probes);
  Alcotest.(check bool) "same outcome" true
    ((r1.minimized = None) = (r2.minimized = None))

let test_evaluate_cache_and_compile_errors () =
  let problem = motivating_problem () in
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  let original = Cirfix.Problem.target_module problem in
  let count = Cirfix.Evaluate.get ev.table in
  let o1 = Cirfix.Evaluate.eval_module ev original in
  let probes_after_first = count Probes in
  let o2 = Cirfix.Evaluate.eval_module ev original in
  Alcotest.(check int) "cached" probes_after_first (count Probes);
  Alcotest.(check (float 1e-9)) "same fitness" o1.fitness o2.fitness;
  (* The one real simulation ran on the compiled backend, and the memo
     key is the structural hash alone. *)
  Alcotest.(check int) "compiled sim counted" 1 (count Sims_compiled);
  Alcotest.(check int) "no event sims" 0 (count Sims_event);
  Alcotest.(check bool) "memo keyed by structural hash" true
    (Hashtbl.mem ev.cache (Verilog.Ast_utils.structural_hash original));
  (* A candidate reading an undeclared identifier counts as a compile
     error with fitness 0. *)
  let broken =
    Verilog.Ast_utils.rewrite_exprs
      (fun e ->
        match e.Verilog.Ast.e with
        | Verilog.Ast.Ident "enable" ->
            Some { e with Verilog.Ast.e = Verilog.Ast.Ident "ghost_wire" }
        | _ -> None)
      original
  in
  let o3 = Cirfix.Evaluate.eval_module ev broken in
  Alcotest.(check (float 1e-9)) "broken fitness" 0.0 o3.fitness;
  Alcotest.(check bool) "compile error" true
    (match o3.status with Cirfix.Evaluate.Compile_error _ -> true | _ -> false)

let test_oversized_candidate_rejected () =
  let problem = motivating_problem () in
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  let original = Cirfix.Problem.target_module problem in
  (* Stack inserts until the candidate is implausibly large. *)
  let s =
    List.find
      (fun (s : Verilog.Ast.stmt) ->
        match s.Verilog.Ast.s with Verilog.Ast.If _ -> true | _ -> false)
      (Verilog.Ast_utils.stmts_of_module original)
  in
  let rec blow m n =
    if n = 0 then m
    else
      match Verilog.Ast_utils.insert_after m ~target:s.Verilog.Ast.sid ~stmt:s with
      | Some m' -> blow m' (n - 1)
      | None -> m
  in
  let big = blow original 200 in
  let o = Cirfix.Evaluate.eval_module ev big in
  Alcotest.(check bool) "rejected" true
    (match o.status with
    | Cirfix.Evaluate.Rejected_oversize -> true
    | _ -> false);
  let count = Cirfix.Evaluate.get ev.table in
  Alcotest.(check int) "counted once" 1 (count Oversize_rejects);
  Alcotest.(check int) "not a compile error" 0 (count Compile_errors);
  (* Repeat lookups hit the memo cache instead of re-counting. *)
  ignore (Cirfix.Evaluate.eval_module ev big);
  Alcotest.(check int) "memoized" 1 (count Oversize_rejects);
  Alcotest.(check int) "no simulation spent" 0 (count Probes)

(* A mutant part-select with an absurd bound. The simulator rejects it as
   too wide; the pruning lanes hash the candidate before any simulation,
   so they must treat the value as unknown rather than allocate it. (The
   select feeds a read net: the compiled backend never evaluates an
   unread continuous assignment.) *)
let test_huge_part_select () =
  let problem = motivating_problem () in
  let src =
    Str.replace_first (Str.regexp "endmodule")
      "wire [3:0] huge;\nassign huge = counter_out[32'hFFFFFFFF:0];\n\
       always @(posedge clk) if (huge == 4'b0) overflow_out <= 1'b0;\n\
       endmodule"
      (Verilog.Pp.module_to_string (Cirfix.Problem.target_module problem))
  in
  let m =
    match Verilog.Parser.parse_design_result src with
    | Ok [ m ] -> m
    | Ok _ -> Alcotest.fail "expected one module"
    | Error e -> Alcotest.fail e
  in
  ignore (Verilog.Canon.semantic_hash m);
  ignore (Verilog.Dataflow.prune_hash m);
  let ev = Cirfix.Evaluate.create Cirfix.Config.default problem in
  Alcotest.(check bool) "pruning lanes on" true ev.lanes_enabled;
  let o = Cirfix.Evaluate.eval_module ev m in
  Alcotest.(check string) "compile error" "compile_error"
    (Cirfix.Evaluate.status_label o.status)

let test_gp_budget_exhaustion_graceful () =
  (* A 1-probe budget must terminate immediately without a repair. *)
  let problem = motivating_problem () in
  let cfg = { Cirfix.Config.default with max_probes = 1; max_generations = 2 } in
  let r = Cirfix.Gp.repair cfg problem in
  Alcotest.(check bool) "no repair" true (r.minimized = None);
  Alcotest.(check bool) "stopped early" true
    (Cirfix.Evaluate.get r.counters Probes <= 2)

let test_gp_generation_callback () =
  let problem = motivating_problem () in
  let cfg =
    { Cirfix.Config.default with pop_size = 10; max_generations = 3; max_probes = 200 }
  in
  let seen = ref [] in
  let r =
    Cirfix.Gp.repair
      ~on_generation:(fun g -> seen := g.gen :: !seen)
      cfg problem
  in
  (* Either a repair cut the run short or all 3 generations reported. *)
  Alcotest.(check bool) "callback fired" true
    (!seen <> [] || r.minimized <> None);
  List.iter
    (fun (g : Cirfix.Gp.generation_stats) ->
      Alcotest.(check bool) "fitness bounded" true
        (g.best_fitness >= 0.0 && g.best_fitness <= 1.0
        && g.mean_fitness >= 0.0 && g.mean_fitness <= 1.0))
      r.generations

let test_gp_without_fault_loc () =
  (* The ablation mode (every statement a target) still repairs the
     easiest defect. *)
  let d = Bench_suite.Defects.find 6 in
  let problem = Bench_suite.Defects.problem d in
  let cfg =
    {
      Cirfix.Config.default with
      use_fault_loc = false;
      pop_size = 200;
      max_generations = 10;
      max_probes = 4000;
    }
  in
  let rec attempt seed =
    let r = Cirfix.Gp.repair { cfg with seed } problem in
    if r.minimized <> None then true else if seed >= 3 then false else attempt (seed + 1)
  in
  Alcotest.(check bool) "repaired without fault loc" true (attempt 1)

(* The dead-code counter's target module with one source rewrite. *)
let dead_code_variant rw =
  let src =
    Bench_suite.Defects.replace_once ~defect:5 (Dead_code.faulty_source ()) rw
  in
  match Verilog.Parser.parse_design_result src with
  | Ok d -> List.find (fun (m : Verilog.Ast.module_decl) -> m.mod_id = "counter") d
  | Error e -> Alcotest.fail e

(* The invariant per-parent localization rests on: the evaluator stores
   one outcome per memo key and every later lookup of that key — through
   [eval_module] or through [prepare]/[commit] on a domain pool — returns
   that same record, so a parent's outcome is a function of its patch.
   Covered for a plain miss (first looked up speculatively, on the pool),
   a semantic-lane store and a dead-edit store, on the dead-code counter. *)
let test_memo_key_one_outcome () =
  let problem = Dead_code.problem () in
  let ev = Cirfix.Evaluate.create { Cirfix.Config.default with jobs = 1 } problem in
  let count = Cirfix.Evaluate.get ev.table in
  let variant = dead_code_variant in
  let seed = Cirfix.Problem.target_module problem in
  (* Live behaviour changed: simulated. *)
  let plain = variant ("counter_out + 2;", "counter_out + 3;") in
  (* Commuted operands: the seed's semantic twin. *)
  let twin = variant ("counter_out + 2;", "2 + counter_out;") in
  (* An edit inside the if (1'b0) branch: provably dead. *)
  let dead = variant ("dbg_trace <= 4'b0000;", "dbg_trace <= 4'b0101;") in
  let same what (a : Cirfix.Evaluate.outcome) b =
    Alcotest.(check bool) (what ^ ": one outcome per key") true (a == b)
  in
  Cirfix.Pool.with_pool ~jobs:2 @@ fun pool ->
  let commit_all mods =
    let p = Cirfix.Evaluate.prepare ev ~pool mods in
    Array.mapi (fun i _ -> Cirfix.Evaluate.commit p i) mods
  in
  let o_seed = Cirfix.Evaluate.eval_module ev seed in
  (* Plain miss: resolved by a speculative result at commit. *)
  let probes = count Probes in
  let via_pool = commit_all [| plain; plain |] in
  Alcotest.(check int) "plain: one simulation" (probes + 1) (count Probes);
  same "plain, commit" via_pool.(0) via_pool.(1);
  same "plain, eval_module" via_pool.(0) (Cirfix.Evaluate.eval_module ev plain);
  same "plain, eval_module again" via_pool.(0)
    (Cirfix.Evaluate.eval_module ev plain);
  List.iter
    (fun (what, m, counter) ->
      let before = count counter in
      let o = Cirfix.Evaluate.eval_module ev m in
      Alcotest.(check int) (what ^ ": lane fired") (before + 1) (count counter);
      same what o (Cirfix.Evaluate.eval_module ev m);
      let c = commit_all [| m; seed; m |] in
      same (what ^ ", commit") o c.(0);
      same (what ^ ", commit again") o c.(2);
      same (what ^ ", seed") o_seed c.(1))
    [
      ("semantic", twin, Cirfix.Evaluate.Semantic_hits);
      ("dead-edit", dead, Cirfix.Evaluate.Dead_edit_skips);
    ]

(* [prepare] on a pool runs the memo keys, the lane hashes, the lane
   probes and the simulations in worker tasks; committing must still
   decide exactly what the sequential path does. The second batch holds a
   plain miss and its duplicate, the seed (a memo hit), and a semantic
   twin and a dead edit whose donor and seed were scored in the first
   batch, so their lane probes run in the pool tasks. *)
let test_speculation_matches_sequential () =
  let problem = Dead_code.problem () in
  let seed = Cirfix.Problem.target_module problem in
  let plain = dead_code_variant ("counter_out + 2;", "counter_out + 3;") in
  let twin = dead_code_variant ("counter_out + 2;", "2 + counter_out;") in
  let dead =
    dead_code_variant ("dbg_trace <= 4'b0000;", "dbg_trace <= 4'b0101;")
  in
  let batches = [ [| seed |]; [| plain; plain; seed; twin; dead |] ] in
  let evaluator jobs =
    Cirfix.Evaluate.create { Cirfix.Config.default with jobs } problem
  in
  let seq = evaluator 1 in
  let expected =
    List.map (Array.map (Cirfix.Evaluate.eval_module seq)) batches
  in
  let par = evaluator 2 in
  let lane_seconds () =
    Cirfix.Evaluate.seconds (Cirfix.Evaluate.counters par) Lane_seconds
  in
  let lane_before = ref 0. in
  let got =
    Cirfix.Pool.with_pool ~jobs:2 @@ fun pool ->
    List.map
      (fun mods ->
        lane_before := lane_seconds ();
        let p = Cirfix.Evaluate.prepare par ~pool mods in
        Array.mapi (fun i _ -> Cirfix.Evaluate.commit p i) mods)
      batches
  in
  List.iteri
    (fun b (want, have) ->
      Array.iteri
        (fun i (w : Cirfix.Evaluate.outcome) ->
          let h : Cirfix.Evaluate.outcome = have.(i) in
          let what = Printf.sprintf "batch %d, candidate %d" b i in
          Alcotest.(check (float 0.)) (what ^ ": fitness") w.fitness h.fitness;
          Alcotest.(check string) (what ^ ": status")
            (Cirfix.Evaluate.status_label w.status)
            (Cirfix.Evaluate.status_label h.status))
        want)
    (List.combine expected got);
  let table ev =
    let c = Cirfix.Evaluate.counters ev in
    List.map
      (fun k -> (Cirfix.Evaluate.name k, Cirfix.Evaluate.get c k))
      Cirfix.Evaluate.all_counters
  in
  Alcotest.(check (list (pair string int))) "counters" (table seq) (table par);
  let count = Cirfix.Evaluate.get seq.table in
  Alcotest.(check int) "semantic lane fired" 1 (count Semantic_hits);
  Alcotest.(check int) "dead-edit lane fired" 1 (count Dead_edit_skips);
  Alcotest.(check bool) "lane time charged by the pool batch" true
    (lane_seconds () > !lane_before)

let test_brute_force_edit_inventory () =
  let problem = motivating_problem () in
  let original = Cirfix.Problem.target_module problem in
  let edits = Cirfix.Brute_force.single_edits original in
  let has pred = List.exists pred edits in
  Alcotest.(check bool) "has deletes" true
    (has (function Cirfix.Patch.Delete _ -> true | _ -> false));
  Alcotest.(check bool) "has inserts" true
    (has (function Cirfix.Patch.Insert _ -> true | _ -> false));
  Alcotest.(check bool) "has replaces" true
    (has (function Cirfix.Patch.Replace _ -> true | _ -> false));
  Alcotest.(check bool) "has templates" true
    (has (function Cirfix.Patch.Template _ -> true | _ -> false));
  Alcotest.(check bool) "hundreds of candidates" true (List.length edits > 100)

let test_brute_force_small_defect () =
  (* The sensitivity-list defect is reachable by single-edit enumeration. *)
  let d = Bench_suite.Defects.find 3 in
  let problem = Bench_suite.Defects.problem d in
  let cfg =
    { Cirfix.Config.default with max_probes = 4000; max_wall_seconds = 60.0 }
  in
  let r = Cirfix.Brute_force.search ~max_depth:1 cfg problem in
  Alcotest.(check bool) "found" true (r.repaired <> None)

let test_fix_loc_pools () =
  let m = counter_module () in
  let pool = Cirfix.Fix_loc.insertion_pool m in
  Alcotest.(check bool) "nonempty" true (pool <> []);
  (* No blocks or bare timing controls in the pool. *)
  List.iter
    (fun (s : Verilog.Ast.stmt) ->
      match s.Verilog.Ast.s with
      | Verilog.Ast.Block _ | Verilog.Ast.EventCtrl _ | Verilog.Ast.Delay _ ->
          Alcotest.fail "illegal insertion source"
      | _ -> ())
    pool;
  let target =
    stmt_by (function Verilog.Ast.Nonblocking _ -> true | _ -> false) m
  in
  let repl = Cirfix.Fix_loc.replacement_pool m ~target in
  List.iter
    (fun (s : Verilog.Ast.stmt) ->
      Alcotest.(check bool) "same class" true
        (Verilog.Ast_utils.classify_stmt s = Verilog.Ast_utils.C_assign);
      Alcotest.(check bool) "not itself" true
        (s.Verilog.Ast.sid <> target.Verilog.Ast.sid))
    repl

(* --- QCheck properties -------------------------------------------------------- *)

let trace_gen =
  let open QCheck.Gen in
  let bit = oneofl [ '0'; '1'; 'x'; 'z' ] in
  let vec_s = map (fun l -> String.init (List.length l) (List.nth l)) (list_size (return 4) bit) in
  let sample_g t = map (fun s -> sample t [ ("q", s) ]) vec_s in
  list_size (int_range 1 10) (return ())
  |> map (fun l -> List.mapi (fun i () -> i * 10) l)
  |> fun times -> times >>= fun ts -> flatten_l (List.map sample_g ts)

let trace_arb = QCheck.make trace_gen

let prop_fitness_bounded =
  QCheck.Test.make ~name:"fitness in [0,1]" ~count:200
    (QCheck.pair trace_arb trace_arb) (fun (e, a) ->
      QCheck.assume (e <> []);
      let f = Cirfix.Fitness.fitness ~phi:2.0 ~expected:(oracle e) ~actual:a in
      f >= 0.0 && f <= 1.0)

let prop_fitness_reflexive =
  QCheck.Test.make ~name:"fitness of self is 1" ~count:200 trace_arb (fun t ->
      QCheck.assume (t <> []);
      Cirfix.Fitness.fitness ~phi:2.0 ~expected:(oracle t) ~actual:t = 1.0)

let prop_self_has_no_mismatch =
  QCheck.Test.make ~name:"no mismatched signals vs self" ~count:200 trace_arb
    (fun t -> Cirfix.Fitness.mismatched_signals ~expected:(oracle t) ~actual:t = [])

let prop_ddmin_result_fails =
  QCheck.Test.make ~name:"ddmin result still satisfies the predicate"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) (int_bound 20))
    (fun items ->
      QCheck.assume (items <> []);
      let needle = List.hd items in
      let test subset = List.mem needle subset in
      let r = Cirfix.Minimize.ddmin test items in
      test r && List.length r = 1)

let () =
  Alcotest.run "cirfix"
    [
      ( "fitness",
        [
          Alcotest.test_case "perfect" `Quick test_fitness_perfect;
          Alcotest.test_case "xz match" `Quick test_fitness_xz_match_counts_phi;
          Alcotest.test_case "formula values" `Quick test_fitness_formula_values;
          Alcotest.test_case "missing samples" `Quick test_fitness_missing_sample;
          Alcotest.test_case "z cases" `Quick test_fitness_z_cases;
          Alcotest.test_case "mismatched signals" `Quick test_mismatched_signals;
        ] );
      ( "fault-localization",
        [
          Alcotest.test_case "counter walkthrough" `Quick test_fault_loc_counter;
          Alcotest.test_case "empty mismatch" `Quick test_fault_loc_empty_mismatch;
          Alcotest.test_case "unrelated name" `Quick test_fault_loc_unrelated_name;
          Alcotest.test_case "continuous assigns" `Quick test_fault_loc_cont_assign;
        ] );
      ( "templates",
        [
          Alcotest.test_case "negate conditional" `Quick test_template_negate;
          Alcotest.test_case "sensitivity replace" `Quick
            test_template_sensitivity_replace;
          Alcotest.test_case "sensitivity add" `Quick test_template_sensitivity_add;
          Alcotest.test_case "assignment kind" `Quick test_template_assignment_kind;
          Alcotest.test_case "numeric" `Quick test_template_numeric;
          Alcotest.test_case "eligibility" `Quick test_template_eligibility;
          Alcotest.test_case "categories" `Quick test_template_categories;
        ] );
      ( "patches",
        [
          Alcotest.test_case "apply and no-op" `Quick test_patch_apply_and_noop;
          Alcotest.test_case "digest collapses" `Quick test_patch_digest_collapses;
          Alcotest.test_case "crossover" `Quick test_crossover;
        ] );
      ( "minimization",
        [
          Alcotest.test_case "basic" `Quick test_ddmin_basic;
          Alcotest.test_case "single" `Quick test_ddmin_single;
          Alcotest.test_case "empty passes" `Quick test_ddmin_empty_passes;
          Alcotest.test_case "irreducible" `Quick test_ddmin_all_needed;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "thin" `Quick test_oracle_thin;
          Alcotest.test_case "csv" `Quick test_oracle_csv;
        ] );
      ( "stats",
        [
          Alcotest.test_case "descriptive" `Quick test_stats_descriptive;
          Alcotest.test_case "kv table alignment" `Quick test_stats_kv_table;
          Alcotest.test_case "ranks" `Quick test_stats_ranks;
          Alcotest.test_case "mann-whitney" `Quick test_stats_mwu;
        ] );
      ( "engine",
        [
          Alcotest.test_case "repairs the counter" `Slow test_gp_repairs_counter;
          Alcotest.test_case "deterministic" `Quick test_gp_deterministic;
          Alcotest.test_case "cache and compile errors" `Quick
            test_evaluate_cache_and_compile_errors;
          Alcotest.test_case "oversized rejected" `Quick
            test_oversized_candidate_rejected;
          Alcotest.test_case "huge part-select" `Quick test_huge_part_select;
          Alcotest.test_case "budget exhaustion" `Quick
            test_gp_budget_exhaustion_graceful;
          Alcotest.test_case "generation callback" `Quick
            test_gp_generation_callback;
          Alcotest.test_case "without fault loc" `Slow test_gp_without_fault_loc;
          Alcotest.test_case "memo key has one outcome" `Quick
            test_memo_key_one_outcome;
          Alcotest.test_case "speculation matches sequential" `Quick
            test_speculation_matches_sequential;
          Alcotest.test_case "brute force inventory" `Quick
            test_brute_force_edit_inventory;
          Alcotest.test_case "brute force small" `Slow test_brute_force_small_defect;
          Alcotest.test_case "fix localization pools" `Quick test_fix_loc_pools;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_fitness_bounded;
            prop_fitness_reflexive;
            prop_self_has_no_mismatch;
            prop_ddmin_result_fails;
          ] );
    ]
