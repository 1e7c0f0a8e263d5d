(* Semantic slicing (paper follow-up direction; ARSP, arXiv 2508.16517):
   backward/forward cones of influence over a module-level def-use graph,
   and extraction of self-contained sliced modules for slice-based repair.

   The graph is item-granular: a whole always block is one node, so kept
   processes are kept verbatim and every statement id of the slice exists
   unchanged in the original module. That verbatim property is what makes
   stitching trivial — a repair patch found against the slice applies to
   the whole module by node id, no translation step.

   Soundness hinges on two closure rules:
   - fan-in closure: every net an in-cone node reads has all of its
     drivers in the cone;
   - write closure: every net an in-cone node writes keeps all of its
     other writers too, so partially-driven registers never split.
   Under both, a slice computes exactly the whole module's values on its
   retained outputs. *)

open Ast
module Names = Deps.Names
module Ids = Set.Make (Int)

let port_names dir (m : module_decl) =
  List.concat_map
    (fun (item : item) ->
      match item.it with
      | PortDecl (d, _, _, names) when d = dir -> names
      | _ -> [])
    m.items
  |> List.filter (fun n -> List.mem n m.mod_ports)

let output_ports m = port_names Output m
let input_ports m = port_names Input m

(* --- Cones ------------------------------------------------------------------ *)

(* Backward cone with write closure: a worklist over net names. Taking a
   name pulls in all of its writers; each new writer contributes both its
   fan-in (fan-in closure) and its writes (write closure) back to the
   worklist. *)
let backward (g : Deps.t) (seed : Names.t) : Ids.t * Names.t =
  let kept = ref Ids.empty in
  let seen = ref Names.empty in
  let work = Queue.create () in
  Names.iter (fun n -> Queue.add n work) seed;
  seen := seed;
  while not (Queue.is_empty work) do
    let name = Queue.pop work in
    List.iter
      (fun (node : Deps.node) ->
        if not (Ids.mem node.id !kept) then begin
          kept := Ids.add node.id !kept;
          Names.iter
            (fun n ->
              if not (Names.mem n !seen) then begin
                seen := Names.add n !seen;
                Queue.add n work
              end)
            (Names.union (Deps.fan_in node) node.writes)
        end)
      (Deps.writers g name)
  done;
  (!kept, !seen)

let forward (g : Deps.t) (seed : Ids.t) : Ids.t =
  let nodes = Deps.nodes g in
  let is_node iid = List.exists (fun (n : Deps.node) -> n.id = iid) nodes in
  let in_cone = ref (Ids.filter is_node (Ids.filter_map (Deps.owner g) seed)) in
  let names = ref Names.empty in
  List.iter
    (fun (n : Deps.node) ->
      if Ids.mem n.id !in_cone then names := Names.union n.writes !names)
    nodes;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (n : Deps.node) ->
        if (not (Ids.mem n.id !in_cone)) && not (Names.disjoint (Deps.fan_in n) !names)
        then begin
          in_cone := Ids.add n.id !in_cone;
          names := Names.union n.writes !names;
          changed := true
        end)
      nodes
  done;
  !in_cone

(* --- Slice extraction ----------------------------------------------------- *)

type plan = {
  sl_module : Ast.module_decl;
  sl_outputs : string list;
  sl_inputs : string list;
  sl_kept : Ast.id list;
  sl_dropped : Ast.id list;
  sl_names : Names.t;
  sl_nodes_total : int;
  sl_procs_kept : int;
  sl_procs_total : int;
  sl_hash : string;
}

let slice_graph (g : Deps.t) (m : module_decl) ~(outputs : string list) : plan =
  let out_ports = output_ports m in
  let seed =
    Names.of_list (List.filter (fun o -> List.mem o out_ports) outputs)
  in
  (* [used]: the names the kept logic touches, plus the seed outputs
     themselves (an undriven output keeps its declaration). *)
  let kept, used = backward g seed in
  let nodes = Deps.nodes g in
  let keep_name n = Names.mem n used in
  let items =
    List.filter_map
      (fun (item : item) ->
        match item.it with
        | PortDecl (dir, kind, r, names) ->
            let names' = List.filter keep_name names in
            if names' = [] then None
            else Some { item with it = PortDecl (dir, kind, r, names') }
        | NetDecl (kind, r, ds) ->
            let kept_item = Ids.mem item.iid kept in
            let ds' =
              List.filter (fun d -> keep_name d.d_name) ds
              |> List.map (fun d ->
                     if kept_item then d else { d with d_init = None })
            in
            if ds' = [] then None else Some { item with it = NetDecl (kind, r, ds') }
        | ParamDecl _ | DefineStub _ -> Some item
        | EventDecl names ->
            let names' = List.filter keep_name names in
            if names' = [] then None else Some { item with it = EventDecl names' }
        | ContAssign _ | Always _ | Initial _ | Instance _ ->
            if Ids.mem item.iid kept then Some item else None)
      m.items
  in
  let mod_ports = List.filter keep_name m.mod_ports in
  let sl_module = { m with mod_ports; items } in
  let logic_ids = List.map (fun (n : Deps.node) -> n.id) nodes in
  let kept_ids = List.filter (fun id -> Ids.mem id kept) logic_ids in
  let dropped_ids = List.filter (fun id -> not (Ids.mem id kept)) logic_ids in
  let procs p = List.filter (fun n -> Deps.is_process n && p n) nodes in
  {
    sl_module;
    sl_outputs = List.filter (fun p -> keep_name p) out_ports;
    sl_inputs = List.filter (fun p -> keep_name p) (input_ports m);
    sl_kept = kept_ids;
    sl_dropped = dropped_ids;
    sl_names = used;
    sl_nodes_total = List.length logic_ids;
    sl_procs_kept = List.length (procs (fun n -> Ids.mem n.id kept));
    sl_procs_total = List.length (procs (fun _ -> true));
    sl_hash = Ast_utils.structural_hash sl_module;
  }

let slice ?design (m : module_decl) ~outputs =
  slice_graph (Deps.build ?design m) m ~outputs

(* --- Testbench harness ---------------------------------------------------- *)

let find_instance (tb : module_decl) ~(inst : string) ~(target : string) =
  List.find_opt
    (fun (item : item) ->
      match item.it with
      | Instance { mod_name; inst_name; _ } ->
          inst_name = inst && mod_name = target
      | _ -> false)
    tb.items

let dut_bindings (dut_item : item) (target : module_decl) : Deps.binding list =
  match dut_item.it with
  | Instance { conns; _ } -> fst (Deps.resolve_conns target conns)
  | _ -> []

let tb_read_outputs ~(tb : module_decl) ~(inst : string)
    ~(target : module_decl) : Names.t =
  match find_instance tb ~inst ~target:target.mod_id with
  | None -> Names.empty
  | Some dut_item ->
      let bindings = dut_bindings dut_item target in
      (* Reads anywhere in the testbench outside the DUT instance itself,
         plus the DUT's own input connections (feedback wired straight
         back in). System-task arguments count: $display differences are
         observable too. *)
      let tb_reads =
        List.fold_left
          (fun acc (item : item) ->
            if item.iid = dut_item.iid then acc
            else Names.union acc (Deps.item_reads item))
          Names.empty tb.items
      in
      let tb_reads =
        List.fold_left
          (fun acc (b : Deps.binding) ->
            match (b.conn, b.dir) with
            | Some e, Some Input -> Deps.expr_reads acc e
            | _ -> acc)
          tb_reads bindings
      in
      List.fold_left
        (fun acc (b : Deps.binding) ->
          match (b.conn, b.dir) with
          | Some { e = Ident n | Index (n, _) | RangeSel (n, _, _); _ }, Some Output
            when Names.mem n tb_reads ->
              Names.add b.port acc
          | _ -> acc)
        Names.empty bindings

let rewrite_testbench ~(tb : module_decl) ~(inst : string)
    ~(target : module_decl) (plan : plan) : module_decl =
  match find_instance tb ~inst ~target:target.mod_id with
  | None -> tb
  | Some dut_item ->
      let bindings = dut_bindings dut_item target in
      let conns' =
        List.filter_map
          (fun p ->
            List.find_opt (fun (b : Deps.binding) -> b.port = p) bindings
            |> Option.map (fun (b : Deps.binding) -> Named (p, b.conn)))
          plan.sl_module.mod_ports
      in
      let items =
        List.map
          (fun (item : item) ->
            match item.it with
            | Instance i when item.iid = dut_item.iid ->
                { item with it = Instance { i with conns = conns' } }
            | _ -> item)
          tb.items
      in
      { tb with items }

(* --- Reporting helpers ----------------------------------------------------- *)

let cone_lines (m : module_decl) (plan : plan) : (string, unit) Hashtbl.t =
  let t = Hashtbl.create 64 in
  let add_rendering (item : item) =
    let s = Format.asprintf "%a" Pp.pp_item item in
    String.split_on_char '\n' s
    |> List.iter (fun line ->
           let line = String.trim line in
           if line <> "" then Hashtbl.replace t line ())
  in
  let kept = Ids.of_list plan.sl_kept in
  List.iter
    (fun (item : item) ->
      match item.it with
      | ContAssign _ | Always _ | Initial _ | Instance _ ->
          if Ids.mem item.iid kept then add_rendering item
      | NetDecl (_, _, ds) ->
          if
            Ids.mem item.iid kept
            || List.exists (fun d -> Names.mem d.d_name plan.sl_names) ds
          then add_rendering item
      | PortDecl (_, _, _, names) ->
          if List.exists (fun n -> Names.mem n plan.sl_names) names then
            add_rendering item
      | ParamDecl _ | EventDecl _ | DefineStub _ -> add_rendering item)
    m.items;
  t
