(* Dataflow-based fault localization for HDL (paper Sec. 3.1, Algorithm 2):
   a context-insensitive fixed-point analysis over assignments to wires and
   registers. Starting from the output-mismatch set, it implicates

     (Impl-Data)  assignment statements whose left-hand side names a
                  mismatched identifier, and
     (Impl-Ctrl)  conditional statements any of whose identifiers (in the
                  whole subtree, per the paper's 4-bit-counter walkthrough)
                  is mismatched,

   adds the implicated node and all of its children to the localization
   set, and feeds newly-seen identifiers back into the mismatch set
   (Add-Child) until a fixed point. The result is a uniformly-ranked set of
   node ids, reflecting the parallel structure of HDL designs.

   For explainability the analysis also records the fixed-point round in
   which each node was first implicated. Round 1 nodes touch the mismatched
   outputs directly; later rounds are reached only through the transitive
   closure. [suspiciousness] turns that distance into a weight in (0, 1] —
   the search itself still treats the set as uniformly ranked, exactly as
   the paper does; the weights only feed the localization journal record
   and the source heatmap. *)

open Verilog.Ast
module IdSet = Set.Make (Int)
module IdMap = Map.Make (Int)
module NameSet = Index.NameSet

type result = {
  fl : IdSet.t; (* implicated node ids (statements and expressions) *)
  mismatch : NameSet.t; (* final transitive mismatch set *)
  iterations : int; (* fixed-point rounds, for diagnostics *)
  rounds : int IdMap.t; (* node id -> round in which it was implicated *)
}

let stmt_idents = Index.stmt_idents

module Id_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash id = id land max_int
end)

(* The fixpoint visits the index's statements in module order, then its
   continuous assignments, and every round sees the names added earlier in
   the same round. A statement or assignment implicated in an earlier
   round is skipped, and so are the statements below an implicated one:
   their ids and names are already in, so visiting them again would change
   nothing. Returns the round of every implicated node, the final mismatch
   set and the number of rounds. *)
let fixpoint (idx : Index.t) ~(mismatch : string list) :
    int Id_tbl.t * NameSet.t * int =
  let rounds_tbl = Id_tbl.create 64 in
  let current = ref (NameSet.of_list mismatch) in
  let stmt_done = Array.make (Array.length idx.stmts) false in
  let cont_done = Array.make (Array.length idx.conts) false in
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    incr rounds;
    changed := false;
    let add_names names =
      NameSet.iter
        (fun n ->
          if not (NameSet.mem n !current) then (
            current := NameSet.add n !current;
            changed := true))
        names
    in
    let add_id id =
      if not (Id_tbl.mem rounds_tbl id) then (
        Id_tbl.add rounds_tbl id !rounds;
        changed := true)
    in
    (* Procedural statements: Impl-Data on an assignment's lvalue,
       Impl-Ctrl on any identifier of a conditional's subtree. *)
    Array.iteri
      (fun i (f : Index.stmt_facts) ->
        if not stmt_done.(i) then
          let implicated =
            match f.writes with
            | Some w -> not (NameSet.disjoint w !current)
            | None -> f.conditional && not (NameSet.disjoint f.idents !current)
          in
          if implicated then (
            Array.fill stmt_done i (f.desc + 1) true;
            for p = f.lo to f.hi - 1 do
              add_id f.tree.(p)
            done;
            add_names f.idents))
      idx.stmts;
    (* Continuous assignments participate in the same dataflow. *)
    Array.iteri
      (fun i (c : Index.cont_facts) ->
        if (not cont_done.(i)) && not (NameSet.disjoint c.c_writes !current)
        then (
          cont_done.(i) <- true;
          List.iter add_id c.c_ids;
          add_names c.c_names))
      idx.conts
  done;
  (rounds_tbl, !current, !rounds)

let localize_index (idx : Index.t) ~(mismatch : string list) : result =
  let rounds_tbl, current, iterations = fixpoint idx ~mismatch in
  let rounds_map =
    Id_tbl.fold (fun id r acc -> IdMap.add id r acc) rounds_tbl IdMap.empty
  in
  {
    fl = IdMap.fold (fun id _ acc -> IdSet.add id acc) rounds_map IdSet.empty;
    mismatch = current;
    iterations;
    rounds = rounds_map;
  }

let implicated_ids (idx : Index.t) ~(mismatch : string list) : IdSet.t =
  let rounds_tbl, _, _ = fixpoint idx ~mismatch in
  IdSet.of_list (Id_tbl.fold (fun id _ acc -> id :: acc) rounds_tbl [])

let localize (m : module_decl) ~(mismatch : string list) : result =
  localize_index (Index.of_module m) ~mismatch

(* Suspiciousness of a node: 1/round for implicated nodes (round 1 writes a
   mismatched output directly), 0 for nodes outside the localization set. *)
let suspiciousness (r : result) (id : int) : float =
  match IdMap.find_opt id r.rounds with
  | None -> 0.
  | Some round -> 1. /. float_of_int round

(* Statements within the localization set — the mutation targets. *)
let implicated (idx : Index.t) (fl : IdSet.t) : stmt list =
  Array.fold_right
    (fun (f : Index.stmt_facts) acc ->
      if IdSet.mem f.stmt.sid fl then f.stmt :: acc else acc)
    idx.stmts []

let fl_statements (m : module_decl) (r : result) : stmt list =
  implicated (Index.of_module m) r.fl

(* When fault localization is disabled (ablation), every statement is a
   target. *)
let all_statements (m : module_decl) : stmt list =
  Verilog.Ast_utils.stmts_of_module m

(* --- Source heatmap ------------------------------------------------------

   [heat_lines] annotates the pretty-printed module with a per-line
   suspiciousness weight. The AST carries no source positions, so the
   mapping goes through the printer itself: each implicated statement (and
   continuous-assignment item) is pretty-printed on its own, and module
   lines whose trimmed text matches a trimmed line of an implicated node's
   rendering inherit that node's weight (max over matches). Structural
   noise lines ("begin", "end") are never marked. Two textually identical
   statements therefore share the higher of their weights — acceptable for
   a heatmap, and deterministic. *)

let heat_markable (t : string) : bool =
  t <> "" && t <> "begin" && t <> "end"

let heat_lines (m : module_decl) (r : result) : (string * float) list =
  let weights : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let mark w text =
    String.split_on_char '\n' text
    |> List.iter (fun line ->
           let t = String.trim line in
           if heat_markable t then
             let prev =
               Option.value (Hashtbl.find_opt weights t) ~default:0.
             in
             if w > prev then Hashtbl.replace weights t w)
  in
  List.iter
    (fun (s : stmt) ->
      let w = suspiciousness r s.sid in
      if w > 0. then mark w (Verilog.Pp.stmt_to_string s))
    (Verilog.Ast_utils.stmts_of_module m);
  List.iter
    (fun (item : item) ->
      match item.it with
      | ContAssign _ ->
          let w = suspiciousness r item.iid in
          if w > 0. then
            mark w (Format.asprintf "%a" Verilog.Pp.pp_item item)
      | _ -> ())
    m.items;
  String.split_on_char '\n' (Verilog.Pp.module_to_string m)
  |> List.map (fun line ->
         let t = String.trim line in
         (line, Option.value (Hashtbl.find_opt weights t) ~default:0.))
