(* A repair problem: a faulty design (with its testbench), the module under
   repair, the simulation spec, and the expected-behaviour oracle. *)

type t = {
  name : string;
  design : Verilog.Ast.design; (* full design including the testbench *)
  target : string; (* name of the module being repaired *)
  spec : Sim.Simulate.spec;
  oracle : Oracle.t;
  golden_steps : int; (* statement count of the golden simulation *)
  golden_end_time : int; (* simulated end time of the golden run *)
}

exception Problem_error of string

let target_module (p : t) : Verilog.Ast.module_decl =
  match List.find_opt (fun m -> m.Verilog.Ast.mod_id = p.target) p.design with
  | Some m -> m
  | None -> raise (Problem_error ("no module named " ^ p.target))

(* Swap a candidate module in for the target. *)
let with_candidate (p : t) (candidate : Verilog.Ast.module_decl) :
    Verilog.Ast.design =
  List.map
    (fun (m : Verilog.Ast.module_decl) ->
      if m.mod_id = p.target then candidate else m)
    p.design

let site_parse = Obs.Profile.site ~span:"problem" "parse"
let site_golden = Obs.Profile.site ~span:"problem" "golden_sim"

(* Build a problem from faulty sources, deriving the oracle by simulating
   the golden sources under the same spec. *)
let make ~name ~(faulty : string) ~(golden : string) ~(testbench : string)
    ~(target : string) (spec : Sim.Simulate.spec) : t =
  let parse what src =
    Obs.Profile.framed site_parse
      ~args:[ ("what", Obs.Json.Str what) ]
      (fun () ->
        match Verilog.Parser.parse_design_result src with
        | Ok d -> d
        | Error e -> raise (Problem_error (what ^ ": " ^ e)))
  in
  let golden_design = parse "golden" (golden ^ "\n" ^ testbench) in
  let golden_run =
    Obs.Profile.framed site_golden @@ fun () ->
    match Sim.Simulate.run golden_design spec with
    | Ok r -> r
    | Error (Sim.Simulate.Elab_failure msg) ->
        raise (Problem_error ("golden design failed to elaborate: " ^ msg))
  in
  let oracle =
    match golden_run.outcome with
    | Sim.Engine.Finished | Sim.Engine.Quiescent ->
        Oracle.of_trace golden_run.trace
    | Sim.Engine.Time_limit_reached ->
        raise (Problem_error "golden design hit the time limit")
    | Sim.Engine.Budget_exceeded m ->
        raise (Problem_error ("golden design exceeded budget: " ^ m))
  in
  let design = parse "faulty" (faulty ^ "\n" ^ testbench) in
  {
    name;
    design;
    target;
    spec;
    oracle;
    golden_steps = golden_run.steps;
    golden_end_time = golden_run.end_time;
  }
