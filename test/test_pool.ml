(* Tests for the parallel evaluation layer: the domain pool itself, the
   structural AST hash that keys the evaluation cache, and the determinism
   contract — a fixed seed must produce the identical repair, probe count,
   and generation statistics at every [jobs] value. *)

let spin n =
  (* Burn a little CPU so tasks finish out of submission order. *)
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 31) + i
  done;
  !acc

(* --- Pool ----------------------------------------------------------- *)

let test_pool_ordering () =
  Cirfix.Pool.with_pool ~jobs:4 @@ fun pool ->
  let xs = Array.init 100 (fun i -> i) in
  let ys = Cirfix.Pool.map pool (fun i -> ignore (spin ((100 - i) * 500)); i * i) xs in
  Alcotest.(check (array int)) "order preserved" (Array.map (fun i -> i * i) xs) ys

let test_pool_exception () =
  Cirfix.Pool.with_pool ~jobs:4 @@ fun pool ->
  let boom =
    try
      ignore
        (Cirfix.Pool.map pool
           (fun i ->
             if i = 3 || i = 7 then failwith (Printf.sprintf "boom %d" i)
             else i)
           (Array.init 10 (fun i -> i)));
      "no exception"
    with Failure m -> m
  in
  (* The lowest-index failure is the one propagated, as in a sequential run. *)
  Alcotest.(check string) "lowest-index failure wins" "boom 3" boom;
  (* The pool survives a failed batch and can be reused. *)
  let ys = Cirfix.Pool.map pool (fun i -> i + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "reusable after failure" [| 2; 3; 4 |] ys

let test_pool_reuse () =
  Cirfix.Pool.with_pool ~jobs:3 @@ fun pool ->
  for round = 1 to 5 do
    let xs = Array.init (10 * round) (fun i -> i) in
    let ys = Cirfix.Pool.map pool (fun i -> i * round) xs in
    Alcotest.(check (array int))
      (Printf.sprintf "round %d" round)
      (Array.map (fun i -> i * round) xs)
      ys
  done

let test_pool_map_list () =
  Cirfix.Pool.with_pool ~jobs:2 @@ fun pool ->
  let ys = Cirfix.Pool.map_list pool String.uppercase_ascii [ "a"; "b"; "c" ] in
  Alcotest.(check (list string)) "map_list" [ "A"; "B"; "C" ] ys

let test_pool_sequential_path () =
  (* jobs=1 spawns no domains and degenerates to Array.map. *)
  Cirfix.Pool.with_pool ~jobs:1 @@ fun pool ->
  Alcotest.(check int) "size" 1 (Cirfix.Pool.size pool);
  let ys = Cirfix.Pool.map pool succ [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "sequential map" [| 2; 3; 4 |] ys

(* --- Structural hash -------------------------------------------------- *)

let parse_modules src =
  match Verilog.Parser.parse_design_result src with
  | Ok ms -> ms
  | Error _ -> []

let test_hash_id_independent () =
  (* Parsing the same source twice yields fresh node ids; the structural
     hash must not see them. *)
  let src = Corpus.read "counter.v" in
  let a = List.hd (parse_modules src) and b = List.hd (parse_modules src) in
  Alcotest.(check string)
    "same structure, different ids, same hash"
    (Verilog.Ast_utils.structural_hash a)
    (Verilog.Ast_utils.structural_hash b)

let test_hash_no_collisions_on_corpus () =
  (* Over every module embedded in the corpus plus a swarm of mutants of
     the counter design, hash equality must coincide with pretty-printed
     equality: distinct programs never collide, identical programs always
     share a key. *)
  let corpus_mods =
    List.concat_map (fun (_, src) -> parse_modules src) Corpus.files
  in
  let mutants =
    let m = List.hd (parse_modules (Corpus.read "counter.v")) in
    let stmts = Verilog.Ast_utils.stmts_of_module m in
    let rng = Random.State.make [| 42 |] in
    let cfg = Cirfix.Config.default in
    let rec gen n acc =
      if n = 0 then acc
      else
        match Cirfix.Mutate.mutate rng cfg m ~fl_stmts:stmts with
        | None -> gen (n - 1) acc
        | Some e -> gen (n - 1) (Cirfix.Patch.apply m [ e ] :: acc)
    in
    gen 150 [ m ]
  in
  let all = Array.of_list (corpus_mods @ mutants) in
  let pp = Array.map Verilog.Pp.module_to_string all in
  let h = Array.map Verilog.Ast_utils.structural_hash all in
  let n = Array.length all in
  Alcotest.(check bool) "non-trivial corpus" true (n > 30);
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if (pp.(i) = pp.(j)) <> (h.(i) = h.(j)) then
        Alcotest.failf
          "hash/pp disagreement between modules %d and %d (pp_eq=%b hash_eq=%b)"
          i j
          (pp.(i) = pp.(j))
          (h.(i) = h.(j))
    done
  done

(* --- Determinism across jobs ----------------------------------------- *)

(* Budgets bound by probes, with a wall-clock limit generous enough that
   it never binds — the only legitimate source of jobs-dependence. *)
let det_cfg (d : Bench_suite.Defects.t) ~jobs =
  {
    (Bench_suite.Runner.scenario_config d) with
    seed = 1;
    max_probes = 300;
    max_wall_seconds = 120.0;
    jobs;
  }

(* Every counter of a snapshot, in table order; the timers vary run to
   run and are left out. *)
let counts c = List.map (Cirfix.Evaluate.get c) Cirfix.Evaluate.all_counters

let gen_stats_t =
  Alcotest.testable
    (fun fmt (g : Cirfix.Gp.generation_stats) ->
      Format.fprintf fmt "{gen=%d best=%.4f mean=%.4f probes=%d}" g.gen
        g.best_fitness g.mean_fitness g.probes_so_far)
    ( = )

let check_gp_deterministic id =
  let d = Bench_suite.Defects.find id in
  let prob = Bench_suite.Defects.problem d in
  let r1 = Cirfix.Gp.repair (det_cfg d ~jobs:1) prob in
  let r4 = Cirfix.Gp.repair (det_cfg d ~jobs:4) prob in
  Alcotest.(check (option string))
    "same minimized patch"
    (Option.map Cirfix.Patch.to_string r1.minimized)
    (Option.map Cirfix.Patch.to_string r4.minimized);
  Alcotest.(check int) "same mutants" r1.mutants_generated r4.mutants_generated;
  Alcotest.(check (list int)) "same counters" (counts r1.counters)
    (counts r4.counters);
  Alcotest.(check (list gen_stats_t))
    "same generation stats" r1.generations r4.generations

let test_gp_deterministic_counter () = check_gp_deterministic 3
let test_gp_deterministic_decoder () = check_gp_deterministic 1

let test_brute_force_deterministic () =
  let d = Bench_suite.Defects.find 3 in
  let prob = Bench_suite.Defects.problem d in
  let r1 = Cirfix.Brute_force.search ~max_depth:1 (det_cfg d ~jobs:1) prob in
  let r4 = Cirfix.Brute_force.search ~max_depth:1 (det_cfg d ~jobs:4) prob in
  Alcotest.(check (option string))
    "same repair"
    (Option.map Cirfix.Patch.to_string r1.repaired)
    (Option.map Cirfix.Patch.to_string r4.repaired);
  Alcotest.(check int) "same tried" r1.candidates_tried r4.candidates_tried;
  Alcotest.(check (list int)) "same counters" (counts r1.counters)
    (counts r4.counters)

let test_runner_parallel_trials () =
  (* Parallel seeded trials through the pool fold to the same summary as
     the sequential driver. *)
  let d = Bench_suite.Defects.find 3 in
  let cfg = det_cfg d ~jobs:1 in
  let seq = Bench_suite.Runner.run_defect ~cfg ~trials:3 d in
  let par =
    Cirfix.Pool.with_pool ~jobs:3 @@ fun pool ->
    Bench_suite.Runner.run_defect ~cfg ~trials:3 ~pool d
  in
  Alcotest.(check bool) "same repaired" seq.repaired par.repaired;
  Alcotest.(check bool) "same correct" seq.correct par.correct;
  Alcotest.(check (list int)) "same counters" (counts seq.counters)
    (counts par.counters);
  Alcotest.(check (option int)) "same winning seed" seq.winning_seed
    par.winning_seed;
  Alcotest.(check (option string))
    "same patch"
    (Option.map Cirfix.Patch.to_string seq.patch)
    (Option.map Cirfix.Patch.to_string par.patch)

(* --- Smoke: a tiny repair actually runs on a multi-domain pool -------- *)

let test_smoke_repair_jobs2 () =
  let d = Bench_suite.Defects.find 3 in
  let prob = Bench_suite.Defects.problem d in
  let r = Cirfix.Gp.repair (det_cfg d ~jobs:2) prob in
  Alcotest.(check bool) "ran some probes" true (r.probes > 0);
  Alcotest.(check bool) "faulty design is faulty" true
    (r.initial_fitness < 1.0);
  match r.repaired_module with
  | Some m ->
      let ev = Cirfix.Evaluate.create (det_cfg d ~jobs:1) prob in
      let o = Cirfix.Evaluate.eval_module ev m in
      Alcotest.(check bool) "repair is plausible" true (o.fitness >= 1.0)
  | None -> ()

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "ordering" `Quick test_pool_ordering;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "reuse" `Quick test_pool_reuse;
          Alcotest.test_case "map_list" `Quick test_pool_map_list;
          Alcotest.test_case "sequential path" `Quick test_pool_sequential_path;
        ] );
      ( "structural hash",
        [
          Alcotest.test_case "id independent" `Quick test_hash_id_independent;
          Alcotest.test_case "no collisions on corpus" `Quick
            test_hash_no_collisions_on_corpus;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "gp counter jobs=1 vs 4" `Quick
            test_gp_deterministic_counter;
          Alcotest.test_case "gp decoder jobs=1 vs 4" `Quick
            test_gp_deterministic_decoder;
          Alcotest.test_case "brute force jobs=1 vs 4" `Quick
            test_brute_force_deterministic;
          Alcotest.test_case "runner parallel trials" `Quick
            test_runner_parallel_trials;
        ] );
      ( "smoke",
        [ Alcotest.test_case "repair at jobs=2" `Quick test_smoke_repair_jobs2 ] );
    ]
