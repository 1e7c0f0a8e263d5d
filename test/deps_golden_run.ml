(* Static-analysis golden: every module-level analysis that reads the
   dependence graph, printed over three input sets so that a change to
   the graph (or to any consumer of it) shows up as a diff.

   Inputs, in output order:
   - the 22 design+testbench pairs (11 projects x {tb, tb2});
   - the 32 defect scenarios' faulty designs;
   - the seeded mutant walks of every scenario's target module
     ([Mutants.walk]), in rounds: round r holds mutant r of every
     scenario, so a prefix of the rounds is a prefix of the output.

   For each input it prints [Analysis.check_module] findings (with the
   design as context), the [Analysis.screen] verdict under the default
   screen checks, [Race.check_design] findings under the testbench top
   and the single-module [Race.screen] verdict, [Lint.check_module]
   findings, the module's [Dataflow.prune_hash] (a [prune] line, which
   pins dead-code erasure and the constant folding it rests on) and
   [Canon.semantic_hash] (a [semantic] line), and the [Slice.slice] plan
   of every output port. Pairs and scenarios cover every module; mutants
   cover the mutated target.
   Every module also gets [localize] lines ([Fault_loc.localize] from
   all output ports, then from each port alone: rounds taken and each
   implicated node's round) and one [propose] line (the fix-localization
   pools, each template's eligible ids and the sensitivity signal names),
   which pin what the repair operators draw from.
   Every input also gets one [schedule] line: the compiled backend's
   statistics, its time-0 order, its dynamic order and its external
   inputs ([Compile.compile] under the testbench top), or why the
   compiler falls back or elaboration fails.

   Usage: deps_golden_run [--all] [--expect FILE]
   The default prints the pairs, the scenarios and the first
   [Mutants.smoke_rounds] mutant rounds; --all prints every round. With
   --expect, the output must equal FILE (--all) or be a prefix of it
   (default), else the run fails naming the first differing line; only
   a one-line summary is printed then. Regenerate the fixture with
   [deps_golden_run --all > test/fixtures/deps-expected.txt]. *)

open Verilog.Ast

let findings buf label fs =
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Format.asprintf "  %s %a\n" label Verilog.Lint.pp_finding f))
    fs

let ids l = String.concat " " (List.map string_of_int l)

let verdict = function None -> "pass" | Some r -> "reject: " ^ r

let class_name : Verilog.Ast_utils.stmt_class -> string = function
  | C_assign -> "assign"
  | C_if -> "if"
  | C_case -> "case"
  | C_loop -> "loop"
  | C_block -> "block"
  | C_timing -> "timing"
  | C_other -> "other"

let sids l = ids (List.map (fun (s : stmt) -> s.sid) l)

(* Fault localization with [mismatch] as the initial mismatch set:
   the rounds taken and every implicated node with its round. *)
let report_localize buf m mismatch =
  let r = Cirfix.Fault_loc.localize m ~mismatch in
  Printf.bprintf buf "  localize [%s]: iterations %d [%s]\n"
    (String.concat " " mismatch) r.iterations
    (String.concat " "
       (List.map
          (fun (id, round) -> Printf.sprintf "%d:%d" id round)
          (Cirfix.Fault_loc.IdMap.bindings r.rounds)))

(* What the repair operators draw from: the insertion pool, the
   replacement pool of each statement class present (for a target whose
   id is in no pool), the eligible ids of every template and the signal
   names the sensitivity templates draw. *)
let report_propose buf m =
  let stmts = Verilog.Ast_utils.stmts_of_module m in
  let classes =
    List.sort_uniq compare (List.map Verilog.Ast_utils.classify_stmt stmts)
  in
  let replace =
    List.map
      (fun c ->
        let t =
          List.find (fun s -> Verilog.Ast_utils.classify_stmt s = c) stmts
        in
        Printf.sprintf "%s [%s]" (class_name c)
          (sids (Cirfix.Fix_loc.replacement_pool m ~target:{ t with sid = -1 })))
      classes
  in
  let templates =
    List.map
      (fun tpl ->
        Printf.sprintf "%s [%s]"
          (Cirfix.Templates.to_string tpl)
          (ids (Cirfix.Templates.eligible_targets tpl m)))
      Cirfix.Templates.all
  in
  let names = Array.to_list (Cirfix.Index.names (Cirfix.Index.of_module m)) in
  Printf.bprintf buf
    "  propose insert [%s] replace {%s} templates {%s} names [%s]\n"
    (sids (Cirfix.Fix_loc.insertion_pool m))
    (String.concat "; " replace)
    (String.concat "; " templates)
    (String.concat " " names)

let report_module buf (design : design) (m : module_decl) =
  Printf.bprintf buf " module %s\n" m.mod_id;
  let outputs = Verilog.Slice.output_ports m in
  report_localize buf m outputs;
  List.iter (fun o -> report_localize buf m [ o ]) outputs;
  report_propose buf m;
  findings buf "analysis" (Verilog.Analysis.check_module ~design m);
  Printf.bprintf buf "  screen %s\n"
    (verdict
       (Verilog.Analysis.screen ~checks:Cirfix.Config.default.screen_checks m));
  Printf.bprintf buf "  race-screen %s\n"
    (verdict
       (Verilog.Race.screen ~hazards:Verilog.Race.all_hazards m));
  findings buf "lint" (Verilog.Lint.check_module m);
  Printf.bprintf buf "  prune %s\n" (Verilog.Dataflow.prune_hash m);
  Printf.bprintf buf "  semantic %s\n" (Verilog.Canon.semantic_hash m);
  List.iter
    (fun o ->
      let p = Verilog.Slice.slice ~design m ~outputs:[ o ] in
      Printf.bprintf buf
        "  slice %s: kept [%s] dropped [%s] outputs [%s] inputs [%s] \
         procs %d/%d\n"
        o (ids p.sl_kept) (ids p.sl_dropped)
        (String.concat " " p.sl_outputs)
        (String.concat " " p.sl_inputs)
        p.sl_procs_kept p.sl_procs_total)
    (Verilog.Slice.output_ports m)

let report buf ~label ~top (design : design) (modules : module_decl list) =
  Printf.bprintf buf "== %s\n" label;
  Printf.bprintf buf "  schedule %s\n" (Schedule.of_design design ~top);
  findings buf "race" (Verilog.Race.check_design ~top design);
  List.iter (report_module buf design) modules

let parse label src =
  match Verilog.Parser.parse_design_result src with
  | Ok d -> Some d
  | Error e ->
      Printf.printf "FAIL %s: parse error: %s\n" label e;
      None

let find_module (d : design) name =
  List.find (fun (m : module_decl) -> m.mod_id = name) d

(* One scenario's faulty design (with the repair testbench). *)
let scenario_design (d : Bench_suite.Defects.t) =
  let p = Bench_suite.Projects.find d.project in
  parse
    (Printf.sprintf "scenario #%d" d.id)
    (Bench_suite.Defects.inject d ^ "\n" ^ Bench_suite.Projects.tb_source p)

let () =
  let all = Golden.all () in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (p : Bench_suite.Projects.t) ->
      List.iteri
        (fun i tb ->
          let label = Printf.sprintf "pair %s tb%d" p.name (i + 1) in
          match parse label (Bench_suite.Projects.design_source p ^ "\n" ^ tb) with
          | None -> ()
          | Some design -> report buf ~label ~top:p.tb_module design design)
        [ Bench_suite.Projects.tb_source p; Bench_suite.Projects.tb2_source p ])
    Bench_suite.Projects.all;
  let scenarios =
    List.filter_map
      (fun (d : Bench_suite.Defects.t) ->
        Option.map (fun design -> (d, design)) (scenario_design d))
      Bench_suite.Defects.all
  in
  List.iter
    (fun ((d : Bench_suite.Defects.t), design) ->
      let p = Bench_suite.Projects.find d.project in
      report buf
        ~label:(Printf.sprintf "scenario #%d %s" d.id d.project)
        ~top:p.tb_module design design)
    scenarios;
  let n = if all then Mutants.rounds else Mutants.smoke_rounds in
  let walks =
    List.map
      (fun ((d : Bench_suite.Defects.t), design) ->
        (d, design, Mutants.walk d (find_module design d.target) ~n))
      scenarios
  in
  for r = 0 to n - 1 do
    List.iter
      (fun ((d : Bench_suite.Defects.t), design, walk) ->
        let m, edit = List.nth walk r in
        let p = Bench_suite.Projects.find d.project in
        let design' =
          List.map
            (fun (x : module_decl) -> if x.mod_id = d.target then m else x)
            design
        in
        report buf
          ~label:(Printf.sprintf "mutant #%d.%d %s" d.id r edit)
          ~top:p.tb_module design' [ m ])
      walks
  done;
  Golden.finish ~name:"deps golden" (Buffer.contents buf)
