(* Static design checks run before a repaired module is handed to a
   developer. The paper leaves synthesizability and style review to the
   human validation phase (Sec. 5.1, footnote 2); this pass automates the
   mechanical part of that review: patterns that simulate fine but
   synthesize badly or hide bugs. *)

open Ast

module Names = Deps.Names

type severity = Warning | Error

type finding = {
  severity : severity;
  rule : string; (* short kebab-case rule name *)
  modname : string; (* module the finding is in *)
  node : id; (* offending node *)
  message : string;
}

let finding severity rule ~modname node fmt =
  Printf.ksprintf (fun message -> { severity; rule; modname; node; message }) fmt

(* Does a statement contain any delay/event/wait timing control? *)
let has_timing (s : stmt) =
  Ast_utils.fold_stmt
    (fun acc (sub : stmt) ->
      acc
      ||
      match sub.s with
      | Delay _ | EventCtrl _ | Wait _ -> true
      | Blocking (_, Some _, _) | Nonblocking (_, Some _, _) -> true
      | _ -> false)
    (fun acc _ -> acc)
    false s

(* A case statement with no default still covers every path when its arms
   enumerate the full value space of a w-bit selector: all patterns are
   two-valued constants of one width w and their distinct values number
   2^w. Wildcard (x/z) patterns, mixed widths, and wide selectors fall
   back to requiring a default. *)
let full_case (arms : case_arm list) : bool =
  let pats = List.concat_map (fun a -> a.patterns) arms in
  match pats with
  | [] -> false
  | { e = Number v; _ } :: _ -> (
      let w = Logic4.Vec.width v in
      if w > 16 then false
      else
        let values =
          List.fold_left
            (fun acc (p : expr) ->
              match (acc, p.e) with
              | Some acc, Number v
                when Logic4.Vec.width v = w ->
                  Option.map (fun n -> n :: acc) (Logic4.Vec.to_int v)
              | _ -> None)
            (Some []) pats
        in
        match values with
        | None -> false
        | Some vs -> List.length (List.sort_uniq compare vs) = 1 lsl w)
  | _ -> false

(* Branch completeness: does every path through [s] assign [name]? *)
let rec always_assigns name (s : stmt) : bool =
  match s.s with
  | Blocking (lhs, _, _) | Nonblocking (lhs, _, _) ->
      List.mem name (Ast_utils.lvalue_base lhs)
  | Block (_, body) -> List.exists (always_assigns name) body
  | If (_, t, e) ->
      (match t with Some t -> always_assigns name t | None -> false)
      && (match e with Some e -> always_assigns name e | None -> false)
  | CaseStmt (kind, _, arms, default) ->
      (match default with
      | Some d -> always_assigns name d
      | None -> kind = Case && full_case arms)
      && List.for_all
           (fun arm ->
             match arm.arm_body with
             | Some b -> always_assigns name b
             | None -> false)
           arms
  | EventCtrl (_, Some k) | Delay (_, Some k) | Wait (_, Some k) ->
      always_assigns name k
  | _ -> false

let check_always ~(params : Names.t) ~modname (acc : finding list)
    (n : Deps.node) (s : stmt) : finding list =
  match (n.kind, s.s) with
  | Deps.Always sens, EventCtrl (_, body) -> (
      let acc =
        if sens.style = Deps.Mixed then
          finding Error "mixed-sensitivity" ~modname s.sid
            "sensitivity list mixes edge and level items"
          :: acc
        else acc
      in
      match (sens.style, body) with
      | (Combinational | Mixed), Some body ->
          (* Incomplete sensitivity: a read signal missing from the list
             (unless the star form is used). *)
          let acc =
            if sens.star then acc
            else
              Names.fold
                (fun r acc ->
                  if Names.mem r sens.listed || Names.mem r n.writes
                     || Names.mem r params (* constants never change *) then
                    acc
                  else
                    finding Warning "incomplete-sensitivity" ~modname s.sid
                      "combinational block reads %s but is not sensitive to it"
                      r
                    :: acc)
                n.reads acc
          in
          (* Latch inference: a written signal not assigned on all paths. *)
          let acc =
            Names.fold
              (fun w acc ->
                if always_assigns w body then acc
                else
                  finding Warning "inferred-latch" ~modname s.sid
                    "%s is not assigned on every path of a combinational block (latch inferred)"
                    w
                  :: acc)
              n.writes acc
          in
          (* Combinational blocks should use blocking assignments. *)
          if not (Names.is_empty n.nba) then
            finding Warning "nonblocking-in-comb" ~modname s.sid
              "non-blocking assignment inside a combinational block"
            :: acc
          else acc
      | Clocked, Some _ ->
          (* Clocked blocks should use non-blocking assignments. *)
          if not (Names.is_empty n.blk) then
            finding Warning "blocking-in-clocked" ~modname s.sid
              "blocking assignment inside a clocked block"
            :: acc
          else acc
      | _, None -> acc)
  | _ ->
      (* An always process without a leading event control free-runs. *)
      if has_timing s then acc
      else
        finding Error "free-running-always" ~modname n.id
          "always block has no timing control and will loop at time 0"
        :: acc

(* The structural drivers of each net, one entry per continuous
   assignment and per always block, for multi-driver detection. *)
let drivers (g : Deps.t) : (string * string) list =
  List.concat_map
    (fun (n : Deps.node) ->
      match n.kind with
      | Assign ->
          List.concat_map
            (fun (a : Deps.assign) -> List.map (fun t -> (t, "assign")) a.a_targets)
            n.assigns
      | Always _ | Timed -> Names.fold (fun w acc -> (w, "always") :: acc) n.writes []
      | _ -> [])
    (Deps.nodes g)

let check_module (m : module_decl) : finding list =
  let modname = m.mod_id in
  let g = Deps.build m in
  let params = Deps.params g in
  let acc = ref [] in
  List.iter
    (fun (n : Deps.node) ->
      match (n.kind, n.item.it) with
      | (Always _ | Timed), Always s ->
          acc := check_always ~params ~modname !acc n s
      | Initial, Initial s ->
          (* $display-only initial blocks are fine; warn on synthesis
             blockers like delays driving design state. *)
          if has_timing s then
            acc :=
              finding Warning "delay-in-design" ~modname n.id
                "initial/timed logic is not synthesizable (testbench-only construct)"
              :: !acc
      | _ -> ())
    (Deps.nodes g);
  (* Multiple structural drivers for one net. *)
  let tally = Hashtbl.create 8 in
  List.iter
    (fun (n, kind) ->
      Hashtbl.replace tally n
        (kind :: Option.value (Hashtbl.find_opt tally n) ~default:[]))
    (drivers g);
  (* Any net with more than one structural driver is contention: two
     continuous assigns, two always blocks, or a mix of the two. The mixed
     case keeps its more specific diagnosis. *)
  Hashtbl.iter
    (fun n kinds ->
      let count = List.length kinds in
      let distinct = List.sort_uniq compare kinds in
      if count > 1 then
        let f =
          if List.length distinct > 1 then
            finding Error "multiple-drivers" ~modname:m.mod_id m.mid
              "%s is driven by both continuous and procedural logic" n
          else
            match distinct with
            | [ "assign" ] ->
                finding Error "multiple-drivers" ~modname:m.mod_id m.mid
                  "%s is driven by %d continuous assignments" n count
            | _ ->
                finding Error "multiple-drivers" ~modname:m.mod_id m.mid
                  "%s is driven by %d always blocks" n count
        in
        acc := f :: !acc)
    tally;
  List.rev !acc

let check_design (d : design) : (string * finding list) list =
  List.map (fun m -> (m.mod_id, check_module m)) d

let pp_finding fmt (f : finding) =
  Format.fprintf fmt "%s [%s] %s:%d: %s"
    (match f.severity with Warning -> "warning" | Error -> "error")
    f.rule f.modname f.node f.message

(* A screener's one-line rejection reason: the first Error-severity
   finding, else the first finding; [None] when there is none. *)
let screen_reason (findings : finding list) : string option =
  match List.find_opt (fun f -> f.severity = Error) findings with
  | Some f -> Some (Format.asprintf "%a" pp_finding f)
  | None -> Option.map (Format.asprintf "%a" pp_finding) (List.nth_opt findings 0)
