(* Tests for the span store's profiler (lib/obs/profile.ml): path-tree
   accumulation and nesting, imbalance detection, determinism of the
   folded-stack structure across same-seed simulations, the region
   ledger under the simulation frames, the shape of a profiled repair,
   and the disabled contract (one boolean test per site, no allocation). *)

open Obs

let counter_src =
  {|
module counter(input clk, input rst, output reg [3:0] q);
  always @(posedge clk) begin
    if (rst) q <= 0;
    else q <= q + 1;
  end
endmodule
module counter_tb;
  reg clk, rst;
  wire [3:0] q;
  counter dut(.clk(clk), .rst(rst), .q(q));
  initial begin
    clk = 0; rst = 1;
    #2 rst = 0;
    #40 $finish;
  end
  always #1 clk = ~clk;
endmodule
|}

let spec : Sim.Simulate.spec =
  { top = "counter_tb"; clock = "counter_tb.clk"; dut_path = "counter_tb.dut" }

let with_profiler f =
  Profile.start ();
  Fun.protect ~finally:Profile.stop f

let test_nesting () =
  with_profiler @@ fun () ->
  let a = Profile.site "test.a"
  and b = Profile.site "test.b"
  and c = Profile.site "test.c" in
  Profile.enter a;
  Profile.enter b;
  Profile.leave b;
  Profile.enter b;
  Profile.leave b;
  Profile.bump c;
  Profile.leave a;
  let r = Profile.report () in
  Alcotest.(check (list string)) "no imbalances" [] r.Profile.r_imbalances;
  let count stack =
    match
      List.find_opt (fun p -> p.Profile.p_stack = stack) r.Profile.r_paths
    with
    | Some p -> p.Profile.p_count
    | None -> Alcotest.failf "path %s missing" (String.concat ";" stack)
  in
  Alcotest.(check int) "outer entered once" 1 (count [ "test.a" ]);
  Alcotest.(check int) "inner entered twice" 2 (count [ "test.a"; "test.b" ]);
  (* [bump] after the nested frames closed counts under the open outer
     frame, and never touches the clock. *)
  Alcotest.(check int) "bump nests under the open frame" 1
    (count [ "test.a"; "test.c" ]);
  (* Self time of every path is non-negative and sums to the total. *)
  List.iter
    (fun p -> Alcotest.(check bool) "self time >= 0" true (p.Profile.p_ns >= 0))
    r.Profile.r_paths;
  Alcotest.(check int) "total is the sum of self times"
    (List.fold_left (fun acc p -> acc + p.Profile.p_ns) 0 r.Profile.r_paths)
    r.Profile.r_total_ns

let test_imbalance () =
  with_profiler @@ fun () ->
  let a = Profile.site "test.a" and b = Profile.site "test.b" in
  Profile.leave b;
  (* nothing open *)
  Profile.enter a;
  Profile.leave b;
  (* wrong leaf (pops anyway) *)
  let msgs = Profile.imbalances () in
  Alcotest.(check int) "both faults recorded" 2 (List.length msgs);
  (* A frame left open surfaces at report time, not as a hard error. *)
  Profile.enter a;
  let r = Profile.report () in
  Alcotest.(check bool) "open frame reported" true
    (List.exists
       (fun m ->
         String.length m >= 5 && String.sub m 0 5 = "frame")
       r.Profile.r_imbalances);
  Profile.leave a

(* Two same-seed simulations must visit the identical set of stacks the
   same number of times; only the nanoseconds may differ. [folded
   ~zero_ns:true] substitutes entry counts for times, so the whole folded
   output must match byte-for-byte. *)
let test_folded_determinism () =
  let one_run () =
    with_profiler @@ fun () ->
    (match Sim.Simulate.run_source ~backend:Sim.Simulate.Event
             ~source:counter_src spec
     with
    | Ok _ -> ()
    | Error (Sim.Simulate.Elab_failure m) -> Alcotest.failf "elab: %s" m);
    Profile.folded ~zero_ns:true (Profile.report ())
  in
  let f1 = one_run () and f2 = one_run () in
  Alcotest.(check bool) "folded output is non-trivial" true
    (String.length f1 > 0);
  Alcotest.(check string) "same structure and counts across runs" f1 f2;
  (* The stacks carry the per-process attribution the ledger is built
     from: scheduler regions under the run frame, processes below. *)
  Alcotest.(check bool) "has an active region" true
    (List.exists
       (String.starts_with ~prefix:"sim.run;active")
       (String.split_on_char '\n' f1));
  Alcotest.(check bool) "attributes a testbench process" true
    (let re = Str.regexp_string "proc:counter_tb" in
     try
       ignore (Str.search_forward re f1 0);
       true
     with Not_found -> false)

(* Disabled profiler: a site test is one boolean read, and a simulation
   with every sink off must not allocate in the profiler. The allocation
   check brackets a loop of guarded hot-path calls with minor_words. *)
let test_disabled_no_alloc () =
  Profile.stop ();
  Alcotest.(check bool) "disabled" false (Profile.enabled ());
  let site = Profile.site "test.disabled" in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    if Profile.recording () then Profile.enter site;
    if Profile.enabled () then Profile.bump site;
    if Profile.recording () then Profile.leave site
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool) "no allocation on the guarded hot path" true
    (w1 -. w0 < 64.)

(* A profiled simulation on the compiled backend uses the same region
   labels as the event backend, so ledgers line up side by side. *)
let test_compiled_labels () =
  let design = Verilog.Parser.parse_design counter_src in
  let regions backend =
    match Sim.Simulate.profile ~runs:2 ~backend design spec with
    | Ok p ->
        Alcotest.(check string) "backend engaged"
          (match backend with
          | Sim.Simulate.Auto -> "compiled"
          | _ -> "event")
          (Sim.Simulate.backend_used_to_string p.Sim.Simulate.used);
        (* The regions tile the simulation: the run frame keeps only the
           instant before its first region opens. *)
        let sum = List.fold_left (fun a (_, ns) -> a +. ns) 0. p.regions in
        Alcotest.(check bool) "regions tile the attributed time" true
          (sum >= 0.95 *. p.ns_per_edge);
        List.map fst p.regions
    | Error (Sim.Simulate.Elab_failure m) -> Alcotest.failf "elab: %s" m
  in
  let ev = regions Sim.Simulate.Event
  and cp = regions Sim.Simulate.Auto in
  List.iter
    (fun region ->
      Alcotest.(check bool)
        (Printf.sprintf "event ledger has %s" region)
        true (List.mem region ev);
      Alcotest.(check bool)
        (Printf.sprintf "compiled ledger has %s" region)
        true (List.mem region cp))
    [ "elab"; "setup"; "active"; "nba"; "advance" ]

(* A run that raises at run time (a continuous assignment reading an
   undeclared name) escapes the region frames it was in; the run frame's
   close unwinds them, so the next run's regions nest under its own run
   frame rather than under the failed run's. *)
let raising_src =
  {|
module d(input clk, output reg [7:0] q);
  wire [7:0] unused;
  assign unused = nope;
  initial q = 0;
  always @(posedge clk) q <= q + 1;
endmodule
module top;
  reg clk;
  wire [7:0] q;
  d u(clk, q);
  initial clk = 0;
  always #5 clk = ~clk;
  initial #50 $finish;
endmodule
|}

let test_raising_run_unwinds () =
  let raising = Verilog.Parser.parse_design raising_src
  and good = Verilog.Parser.parse_design counter_src in
  let raising_spec : Sim.Simulate.spec =
    { top = "top"; clock = "top.clk"; dut_path = "top.u" }
  in
  let r =
    with_profiler @@ fun () ->
    List.iter
      (fun backend ->
        (match Sim.Simulate.run ~backend raising raising_spec with
        | Error (Sim.Simulate.Elab_failure _) -> ()
        | Ok _ -> Alcotest.fail "the raising design should fail");
        match Sim.Simulate.run ~backend good spec with
        | Ok _ -> ()
        | Error (Sim.Simulate.Elab_failure m) -> Alcotest.failf "elab: %s" m)
      [ Sim.Simulate.Event; Sim.Simulate.Auto ];
    Profile.report ()
  in
  Alcotest.(check (list string)) "no imbalances" [] r.Profile.r_imbalances;
  let roots =
    List.sort_uniq compare
      (List.map (fun (p : Profile.path) -> List.hd p.p_stack) r.Profile.r_paths)
  in
  Alcotest.(check (list string)) "only simulation frames at the root"
    [ "sim.elaborate"; "sim.run" ] roots;
  List.iter
    (fun (p : Profile.path) ->
      if List.length (List.filter (String.equal "sim.run") p.p_stack) > 1 then
        Alcotest.failf "%s: a run nested in a run"
          (String.concat ";" p.p_stack))
    r.Profile.r_paths

(* A profiled repair is one tree: the repair's layers at the top, and
   every simulation region under a simulation frame. *)
let profiled_repair =
  lazy
    (let problem = Bench_suite.Defects.problem (Bench_suite.Defects.find 3) in
     let cfg =
       {
         Cirfix.Config.default with
         jobs = 2;
         seed = 1;
         pop_size = 10;
         max_generations = 2;
         max_probes = 100;
         max_wall_seconds = 600.0;
       }
     in
     with_profiler @@ fun () ->
     ignore (Cirfix.Gp.repair cfg problem);
     Profile.report ())

let test_repair_nesting () =
  let r = Lazy.force profiled_repair in
  Alcotest.(check (list string)) "no imbalances" [] r.Profile.r_imbalances;
  let regions =
    [ "elab"; "setup"; "comb"; "active"; "nba"; "monitor"; "advance"; "collect" ]
  in
  let is_gp = String.starts_with ~prefix:"gp." in
  List.iter
    (fun (p : Profile.path) ->
      let stack = String.concat ";" p.p_stack in
      (match p.p_stack with
      | root :: _ ->
          Alcotest.(check bool) (stack ^ ": no region at the root") false
            (List.mem root regions)
      | [] -> ());
      (* Every region sits under a simulation frame. *)
      let rec under_sim = function
        | [] -> ()
        | f :: _ when f = "sim.run" || f = "sim.elaborate" -> ()
        | f :: rest ->
            if List.mem f regions then
              Alcotest.failf "%s: region %s outside a simulation frame" stack f;
            under_sim rest
      in
      under_sim p.p_stack;
      if List.exists is_gp p.p_stack then
        Alcotest.(check bool) (stack ^ ": gp frames are roots") true
          (is_gp (List.hd p.p_stack)))
    r.Profile.r_paths;
  let roots = List.map (fun (n, _, _) -> n) (Profile.regions r) in
  Alcotest.(check bool) "generations are top-level frames" true
    (List.mem "gp.generation" roots);
  Alcotest.(check bool) "simulations are attributed" true
    (List.exists
       (fun (p : Profile.path) -> List.mem "active" p.p_stack)
       r.Profile.r_paths)

(* A pool worker's wait for work is idle time, not run time: it is
   reported apart, and the top-level shares divide work alone. *)
let test_worker_idle () =
  let r = Lazy.force profiled_repair in
  Alcotest.(check bool) "worker idle time reported" true (r.Profile.r_idle_ns > 0);
  Alcotest.(check bool) "no idle frame among the paths" false
    (List.exists
       (fun (p : Profile.path) -> List.mem "pool.idle" p.p_stack)
       r.Profile.r_paths);
  let worker_self =
    List.fold_left
      (fun acc (p : Profile.path) ->
        if p.p_stack = [ "pool.worker" ] then acc + p.p_ns else acc)
      0 r.Profile.r_paths
  in
  if 20 * worker_self >= r.Profile.r_total_ns then
    Alcotest.failf "pool.worker self time %d ns is 5%% or more of %d ns"
      worker_self r.Profile.r_total_ns;
  Alcotest.(check int) "top-level regions sum to the total"
    r.Profile.r_total_ns
    (List.fold_left (fun acc (_, ns, _) -> acc + ns) 0 (Profile.regions r))

let () =
  Alcotest.run "profile"
    [
      ( "accumulator",
        [
          Alcotest.test_case "nesting" `Quick test_nesting;
          Alcotest.test_case "imbalance detection" `Quick test_imbalance;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "folded determinism" `Quick
            test_folded_determinism;
          Alcotest.test_case "region labels match across backends" `Quick
            test_compiled_labels;
          Alcotest.test_case "raising run unwinds its regions" `Quick
            test_raising_run_unwinds;
          Alcotest.test_case "repair layers at the top" `Quick
            test_repair_nesting;
          Alcotest.test_case "worker idle outside the shares" `Quick
            test_worker_idle;
        ] );
      ( "disabled",
        [
          Alcotest.test_case "no allocation when off" `Quick
            test_disabled_no_alloc;
        ] );
    ]
