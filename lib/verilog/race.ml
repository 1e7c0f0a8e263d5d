(* Elaboration-aware scheduling-hazard (race) analysis.

   The dependence graph ({!Deps}) describes one module at a time; races,
   however, live in the *elaborated* design: a testbench
   process and a DUT process clocked by the same edge race through a port
   connection just as two sibling always blocks do. This pass flattens the
   hierarchy the same way [Sim.Elaborate] binds ports — a whole-net
   identifier connection makes the child port an alias of the parent net,
   anything else becomes a dependence edge — and then checks four hazard
   classes over processes grouped by event region:

   (a) write-write: one signal procedurally written by two always
       processes that can run in the same event region (Error);
   (b) blocking read-write: a signal blocking-assigned in one clocked
       process and read by another process under the same clock edge, so
       the reader sees old or new data depending on scheduler order
       (Warning);
   (c) mixed blocking/non-blocking writes to one register (Warning);
   (d) stale-read: a combinational process reads a signal that can change
       at runtime but is missing from its sensitivity list, so the block
       holds a stale value until some other trigger fires (Warning).

   Initial blocks are exempt everywhere: testbench stimulus conventionally
   initializes from initial blocks at times no always process contends
   for, and flagging it would drown real races in noise. *)

open Ast
module Names = Deps.Names

type hazard = Write_write | Blocking_rw | Mixed_assign | Stale_read

let all_hazards = [ Write_write; Blocking_rw; Mixed_assign; Stale_read ]

(* --- Union-find over elaborated (hierarchical) signal names ------------- *)

(* Whole-net port connections are aliases: writing the child port IS
   writing the parent net. The representative is the outermost (shortest)
   path so findings read naturally. *)
type uf = (string, string) Hashtbl.t

let rec uf_find (uf : uf) x =
  match Hashtbl.find_opt uf x with
  | None -> x
  | Some p ->
      let r = uf_find uf p in
      if r <> p then Hashtbl.replace uf x r;
      r

let uf_union (uf : uf) a b =
  let ra = uf_find uf a and rb = uf_find uf b in
  if ra <> rb then
    let keep, drop =
      if
        String.length ra < String.length rb
        || (String.length ra = String.length rb && ra <= rb)
      then (ra, rb)
      else (rb, ra)
    in
    Hashtbl.replace uf drop keep

(* --- Per-process summaries over the flattened design -------------------- *)

type trigger = Tedge of string * bool (* signal, posedge? *)

(* Which event region(s) a process can execute in. *)
type region =
  | Rcomb (* level/star sensitive: runs whenever an input settles *)
  | Rclocked of trigger list (* edge-sensitive *)
  | Rtimed (* no leading event control: self-timed (clock generators) *)

type proc = {
  p_path : string; (* instance path of the enclosing module *)
  p_node : id; (* node of the always statement *)
  p_region : region;
  p_reads : Names.t; (* hierarchical names, pre-canonicalization *)
  p_blk : Names.t; (* blocking write targets *)
  p_nba : Names.t; (* non-blocking write targets *)
  p_listed : Names.t; (* signals named in the sensitivity list *)
  p_star : bool;
}

type flat = {
  uf : uf;
  mutable procs : proc list; (* always processes, reverse walk order *)
  mutable init_writes : Names.t; (* initial-block targets: changeable *)
  mutable cont : (Names.t * Names.t) list; (* (targets, support) edges *)
  ext_driven : Names.t; (* root inputs: change without a writer *)
  mutable recursive : Lint.finding list; (* instances left unflattened *)
}

(* Add the instance of [m] at [path] to [f], then its known children.
   [above] names the modules on the instantiation path, [m] included: an
   instance of one of them would recurse without end, so it is reported
   and not descended into. Parameter overrides vary per instance but are
   constant within one, so parameter names are simply dropped from every
   signal set. *)
let rec flatten_module (f : flat) ~(graph_of : module_decl -> Deps.t)
    ~(above : string list) ~(path : string) (m : module_decl) : unit =
  let g = graph_of m in
  let consts = Deps.params g in
  let q n = path ^ "." ^ n in
  let qualify names =
    Names.fold
      (fun n acc -> if Names.mem n consts then acc else Names.add (q n) acc)
      names Names.empty
  in
  let proc (n : Deps.node) (s : stmt) region ~listed ~star =
    f.procs <-
      {
        p_path = path;
        p_node = s.sid;
        p_region = region;
        p_reads = qualify n.reads;
        p_blk = qualify n.blk;
        p_nba = qualify n.nba;
        p_listed = qualify listed;
        p_star = star;
      }
      :: f.procs
  in
  List.iter
    (fun (n : Deps.node) ->
      match (n.kind, Deps.process_stmt n) with
      | Always sens, Some s ->
          let region =
            match sens.style with
            | Clocked ->
                Rclocked (List.map (fun (x, pos) -> Tedge (q x, pos)) sens.edges)
            | Combinational | Mixed -> Rcomb
          in
          proc n s region ~listed:sens.listed ~star:sens.star
      | Timed, Some s ->
          (* No leading event control: a self-timed process (clock
             generator). Its writes change at times no static region
             shares, but they are [changeable]. *)
          proc n s Rtimed ~listed:Names.empty ~star:false
      | Initial, _ -> f.init_writes <- Names.union f.init_writes (qualify n.writes)
      | Assign, _ ->
          List.iter
            (fun (a : Deps.assign) ->
              f.cont <-
                (qualify (Names.of_list a.a_targets), qualify a.a_supports) :: f.cont)
            n.assigns
      | Instance { inst; child = Some child; _ }, _
        when List.mem child.mod_id above ->
          f.recursive <-
            Lint.finding Lint.Error "recursive-instance" ~modname:path n.id
              "instance %s of %s recurses: %s is already on its \
               instantiation path"
              inst child.mod_id child.mod_id
            :: f.recursive
      | Instance { inst; child = Some child; bindings }, _ ->
          let child_path = q inst in
          List.iter
            (fun (b : Deps.binding) ->
              let cport = child_path ^ "." ^ b.port in
              match b.conn with
              | None -> ()
              | Some { e = Ident x; _ } when not (Names.mem x consts) ->
                  (* Whole-net connection: the child port and the parent
                     net are the same elaborated signal. *)
                  uf_union f.uf cport (q x)
              | Some e -> (
                  let idents = qualify (Deps.expr_reads Names.empty e) in
                  match b.dir with
                  | Some Input -> f.cont <- (Names.singleton cport, idents) :: f.cont
                  | Some Output -> f.cont <- (idents, Names.singleton cport) :: f.cont
                  | Some Inout | None ->
                      f.cont <- (Names.singleton cport, idents) :: f.cont;
                      f.cont <- (idents, Names.singleton cport) :: f.cont))
            bindings;
          flatten_module f ~graph_of ~above:(child.mod_id :: above)
            ~path:child_path child
      | _ -> () (* opaque instances: nothing to bind *))
    (Deps.nodes g)

let flatten (design : design) ~(top : string) : flat option =
  match List.find_opt (fun (m : module_decl) -> m.mod_id = top) design with
  | None -> None
  | Some root ->
      let f =
        {
          uf = Hashtbl.create 64;
          procs = [];
          init_writes = Names.empty;
          cont = [];
          (* Primary inputs of the root change under external control. *)
          ext_driven =
            Hashtbl.fold
              (fun n dir acc ->
                match dir with
                | Input | Inout -> Names.add (top ^ "." ^ n) acc
                | Output -> acc)
              (Deps.port_directions root) Names.empty;
          recursive = [];
        }
      in
      (* One graph per module, however many instances it has. *)
      let graphs = Hashtbl.create 8 in
      let graph_of (m : module_decl) =
        match Hashtbl.find_opt graphs m.mod_id with
        | Some g -> g
        | None ->
            let g = Deps.build ~design m in
            Hashtbl.add graphs m.mod_id g;
            g
      in
      flatten_module f ~graph_of ~above:[ top ] ~path:top root;
      f.procs <- List.rev f.procs;
      Some f

(* --- Hazard checks ------------------------------------------------------ *)

let canon f names = Names.map (uf_find f.uf) names

let canon_proc f (p : proc) =
  let region =
    match p.p_region with
    | Rclocked ts ->
        Rclocked (List.map (fun (Tedge (n, pos)) -> Tedge (uf_find f.uf n, pos)) ts)
    | r -> r
  in
  {
    p with
    p_region = region;
    p_reads = canon f p.p_reads;
    p_blk = canon f p.p_blk;
    p_nba = canon f p.p_nba;
    p_listed = canon f p.p_listed;
  }

let triggers_overlap t1 t2 =
  List.exists (fun (Tedge (n, e)) -> List.mem (Tedge (n, e)) t2) t1

(* Can two processes execute in the same event region of one timestep? A
   combinational process runs whenever its inputs settle, so it overlaps
   anything; clocked processes overlap when they share a (signal, edge)
   trigger; self-timed processes wake at times statically unknowable, so
   they only (conservatively) overlap each other. *)
let regions_overlap a b =
  match (a, b) with
  | Rcomb, _ | _, Rcomb -> true
  | Rclocked t1, Rclocked t2 -> triggers_overlap t1 t2
  | Rtimed, Rtimed -> true
  | Rtimed, Rclocked _ | Rclocked _, Rtimed -> false

(* Signals that can change value at runtime: procedural write targets and
   root inputs, closed over continuous-assignment/port dependence edges. *)
let changeable (f : flat) : Names.t =
  let base =
    List.fold_left
      (fun acc p -> Names.union acc (Names.union p.p_blk p.p_nba))
      (Names.union (canon f f.init_writes) (canon f f.ext_driven))
      (List.map (canon_proc f) f.procs)
  in
  let cont =
    List.map (fun (ts, sup) -> (canon f ts, canon f sup)) f.cont
  in
  let rec fix acc =
    let acc' =
      List.fold_left
        (fun acc (targets, support) ->
          if Names.is_empty (Names.inter support acc) then acc
          else Names.union acc targets)
        acc cont
    in
    if Names.cardinal acc' = Names.cardinal acc then acc else fix acc'
  in
  fix base

(* Strip the shared hierarchy prefix when rendering a signal so messages
   stay readable ("dut.q" rather than "tb.dut.q" inside tb). *)
let pretty ~path sig_ =
  let prefix = path ^ "." in
  if
    String.length sig_ > String.length prefix
    && String.sub sig_ 0 (String.length prefix) = prefix
  then String.sub sig_ (String.length prefix) (String.length sig_ - String.length prefix)
  else sig_

let check_flat ?(hazards = all_hazards) (f : flat) : Lint.finding list =
  let procs = Array.of_list (List.map (canon_proc f) f.procs) in
  let findings = ref f.recursive in
  let add sev rule ~path node fmt =
    Printf.ksprintf
      (fun message ->
        findings :=
          { Lint.severity = sev; rule; modname = path; node; message }
          :: !findings)
      fmt
  in
  let n = Array.length procs in
  (* (a) write-write and (b) blocking read-write run over process pairs. *)
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let p = procs.(i) and q = procs.(j) in
        let overlap = regions_overlap p.p_region q.p_region in
        if i < j && overlap && List.mem Write_write hazards then begin
          let pw = Names.union p.p_blk p.p_nba
          and qw = Names.union q.p_blk q.p_nba in
          Names.iter
            (fun s ->
              add Lint.Error "write-write-race" ~path:p.p_path p.p_node
                "%s is written by always blocks %s:%d and %s:%d, which can \
                 run in the same event region"
                (pretty ~path:p.p_path s) p.p_path p.p_node q.p_path q.p_node)
            (Names.inter pw qw)
        end;
        (* (b): writer p, reader q — ordered, both clocked on a shared
           edge. Signals the pair also contends on as writers are already
           (a) findings. *)
        if overlap && List.mem Blocking_rw hazards then
          match (p.p_region, q.p_region) with
          | Rclocked _, Rclocked _ ->
              let contended =
                Names.inter
                  (Names.union p.p_blk p.p_nba)
                  (Names.union q.p_blk q.p_nba)
              in
              Names.iter
                (fun s ->
                  if not (Names.mem s contended) then
                    add Lint.Warning "blocking-read-write" ~path:p.p_path
                      p.p_node
                      "%s is blocking-assigned in %s:%d and read by %s:%d \
                       under the same clock edge; the reader sees old or new \
                       data depending on process order (use a non-blocking \
                       assignment)"
                      (pretty ~path:p.p_path s) p.p_path p.p_node q.p_path
                      q.p_node)
                (Names.inter p.p_blk q.p_reads)
          | _ -> ()
      end
    done
  done;
  (* (c) mixed blocking/non-blocking writes per signal, across processes. *)
  if List.mem Mixed_assign hazards then begin
    let blk_by = Hashtbl.create 16 and nba_by = Hashtbl.create 16 in
    Array.iter
      (fun p ->
        Names.iter
          (fun s -> if not (Hashtbl.mem blk_by s) then Hashtbl.add blk_by s p)
          p.p_blk;
        Names.iter
          (fun s -> if not (Hashtbl.mem nba_by s) then Hashtbl.add nba_by s p)
          p.p_nba)
      procs;
    let sigs =
      Hashtbl.fold (fun s _ acc -> if Hashtbl.mem nba_by s then s :: acc else acc)
        blk_by []
      |> List.sort_uniq compare
    in
    List.iter
      (fun s ->
        let p = Hashtbl.find blk_by s and q = Hashtbl.find nba_by s in
        add Lint.Warning "mixed-blocking-nonblocking" ~path:p.p_path p.p_node
          "%s is written by both blocking (%s:%d) and non-blocking (%s:%d) \
           assignments"
          (pretty ~path:p.p_path s) p.p_path p.p_node q.p_path q.p_node)
      sigs
  end;
  (* (d) stale reads: combinational processes missing a changeable input
     from their sensitivity list. *)
  if List.mem Stale_read hazards then begin
    let can_change = changeable f in
    Array.iter
      (fun p ->
        if p.p_region = Rcomb && not p.p_star then
          let own = Names.union p.p_blk p.p_nba in
          Names.iter
            (fun s ->
              if
                (not (Names.mem s p.p_listed))
                && (not (Names.mem s own))
                && Names.mem s can_change
              then
                add Lint.Warning "stale-read" ~path:p.p_path p.p_node
                  "combinational block %s:%d reads %s but is not sensitive \
                   to it; it holds a stale value until another trigger fires"
                  p.p_path p.p_node (pretty ~path:p.p_path s))
            p.p_reads)
      procs
  end;
  List.sort
    (fun (a : Lint.finding) (b : Lint.finding) ->
      compare (a.modname, a.node, a.rule, a.message)
        (b.modname, b.node, b.rule, b.message))
    !findings

(* --- Entry points ------------------------------------------------------- *)

let check_design ?(hazards = all_hazards) ~(top : string) (design : design) :
    Lint.finding list =
  match flatten design ~top with None -> [] | Some f -> check_flat ~hazards f

(* Top candidates: modules never instantiated by another module in the
   design, in source order, then, in source order, the first module of
   each instantiation cycle that none of those reaches. *)
let roots (design : design) : string list =
  let children (m : module_decl) =
    List.filter_map
      (fun (item : item) ->
        match item.it with
        | Instance { mod_name; _ } when mod_name <> m.mod_id ->
            List.find_opt (fun (c : module_decl) -> c.mod_id = mod_name) design
        | _ -> None)
      m.items
  in
  let instantiated =
    List.concat_map children design
    |> List.map (fun (m : module_decl) -> m.mod_id)
    |> Names.of_list
  in
  let reached = Hashtbl.create 16 in
  let rec reach (m : module_decl) =
    if not (Hashtbl.mem reached m.mod_id) then begin
      Hashtbl.add reached m.mod_id ();
      List.iter reach (children m)
    end
  in
  let pick keep =
    List.filter (fun (m : module_decl) -> keep m && (reach m; true)) design
  in
  let tops = pick (fun m -> not (Names.mem m.mod_id instantiated)) in
  let cycles = pick (fun m -> not (Hashtbl.mem reached m.mod_id)) in
  List.map (fun (m : module_decl) -> m.mod_id) (tops @ cycles)

let check_module ?(hazards = all_hazards) (m : module_decl) : Lint.finding list
    =
  check_design ~hazards ~top:m.mod_id [ m ]

(* Pre-simulation screening hook for {!Cirfix.Evaluate}: any hazard on the
   candidate module alone rejects it (Error-severity findings win the
   message, mirroring [Analysis.screen]). *)
let screen ~(hazards : hazard list) (m : module_decl) : string option =
  Lint.screen_reason (check_module ~hazards m)
