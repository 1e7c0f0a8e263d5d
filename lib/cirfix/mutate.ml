(* Repair operators (paper Sec. 3.4): mutation (replace / insert / delete)
   over the fault-localization space, drawing sources from the
   fix-localization space; and single-point crossover over edit lists
   (Sec. 3.4, "standard single-point crossover"). *)

open Verilog.Ast

(* A uniform draw: one [Random.State.int] over the array's length, none
   when it is empty. *)
let choose rng (a : 'a array) : 'a option =
  match Array.length a with
  | 0 -> None
  | n -> Some a.(Random.State.int rng n)

(* [choose] over the statements of [pool] whose id is not [sid], without
   building that array. *)
let choose_other rng (pool : stmt array) (sid : id) : stmt option =
  let others =
    Array.fold_left (fun n (s : stmt) -> if s.sid <> sid then n + 1 else n) 0 pool
  in
  let rec nth i k =
    let s = pool.(i) in
    if s.sid = sid then nth (i + 1) k else if k = 0 then s else nth (i + 1) (k - 1)
  in
  if others = 0 then None else Some (nth 0 (Random.State.int rng others))

(* Mutating raw blocks or bare timing controls mostly destroys process
   structure; operate on the enclosed statements instead. *)
let targets (fl_stmts : stmt list) : stmt array =
  List.filter
    (fun (s : stmt) ->
      match s.s with Block _ | EventCtrl (_, None) -> false | _ -> true)
    fl_stmts
  |> Array.of_list

(* Draw one mutation edit for a parent whose proposal index is [idx] and
   whose mutation targets are [targets]. *)
let mutate_index (rng : Random.State.t) (cfg : Config.t) (idx : Index.t)
    ~(targets : stmt array) : Patch.edit option =
  let p = Random.State.float rng 1.0 in
  let total = cfg.del_threshold +. cfg.ins_threshold +. cfg.rep_threshold in
  let p = p *. total in
  if p <= cfg.del_threshold then
    Option.map (fun (s : stmt) -> Patch.Delete s.sid) (choose rng targets)
  else if p <= cfg.del_threshold +. cfg.ins_threshold then (
    let pool =
      if cfg.use_fix_loc then Index.insertion idx else Index.unrestricted idx
    in
    match (choose rng targets, choose rng pool) with
    | Some dest, Some src -> Some (Patch.Insert (dest.sid, src))
    | _ -> None)
  else
    match choose rng targets with
    | None -> None
    | Some dest -> (
        let pool =
          if cfg.use_fix_loc then Index.same_class idx dest
          else Index.unrestricted idx
        in
        match choose_other rng pool dest.sid with
        | Some src -> Some (Patch.Replace (dest.sid, src))
        | None -> None)

let mutate (rng : Random.State.t) (cfg : Config.t) (m : module_decl)
    ~(fl_stmts : stmt list) : Patch.edit option =
  mutate_index rng cfg (Index.of_module m) ~targets:(targets fl_stmts)

(* Per template site, the ids [template_index] draws from: the eligible
   nodes in the localization set, or every eligible node when none is
   (sensitivity lists live on always blocks that often sit just outside
   the localized region). Each site's array is built on first use. *)
let template_sites (idx : Index.t) ~(fl : Fault_loc.IdSet.t) :
    Templates.t -> id array =
  let memo = Hashtbl.create 8 in
  fun tpl ->
    let site = Templates.site tpl in
    match Hashtbl.find_opt memo site with
    | Some a -> a
    | None ->
        let all = Index.sites idx site in
        let inter =
          Array.of_list
            (List.filter (fun id -> Fault_loc.IdSet.mem id fl) (Array.to_list all))
        in
        let a = if Array.length inter = 0 then all else inter in
        Hashtbl.add memo site a;
        a

(* Draw a repair-template edit (Alg. 1 line 8): a template, a target among
   [sites tpl], and, for the sensitivity templates, a signal the module's
   statements mention. *)
let template_index (rng : Random.State.t) (idx : Index.t)
    ~(sites : Templates.t -> id array) : Patch.edit option =
  let tpl = List.nth Templates.all (Random.State.int rng (List.length Templates.all)) in
  match choose rng (sites tpl) with
  | None -> None
  | Some target ->
      let signal =
        match tpl with
        | Templates.Sens_posedge | Templates.Sens_negedge | Templates.Sens_level
        | Templates.Sens_add_posedge | Templates.Sens_add_negedge ->
            choose rng (Index.names idx)
        | _ -> None
      in
      Some (Patch.Template (tpl, target, signal))

let template_edit (rng : Random.State.t) (m : module_decl)
    ~(fl : Fault_loc.IdSet.t) : Patch.edit option =
  let idx = Index.of_module m in
  template_index rng idx ~sites:(template_sites idx ~fl)

(* Single-point crossover: swap edit-list suffixes. *)
let crossover (rng : Random.State.t) (a : Patch.t) (b : Patch.t) :
    Patch.t * Patch.t =
  let cut l =
    let n = List.length l in
    if n = 0 then 0 else Random.State.int rng (n + 1)
  in
  let ca = cut a and cb = cut b in
  let take k l = List.filteri (fun i _ -> i < k) l in
  let drop k l = List.filteri (fun i _ -> i >= k) l in
  (take ca a @ drop cb b, take cb b @ drop ca a)
