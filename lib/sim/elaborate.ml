(* Elaboration: resolve the module hierarchy into a flat set of runtime
   variables, continuous-assignment closures, and process descriptors.
   Mirrors what a Verilog simulator's front end does before time 0. *)

open Logic4
open Verilog.Ast

type proc_kind = PAlways | PInitial

type process = {
  pr_scope : Runtime.scope;
  pr_body : stmt;
  pr_kind : proc_kind;
  pr_item : int; (* index of its always/initial item in the module *)
}

(* Structured description of a combinational binding, used by the compiled
   backend (Compile) to re-lower the thunk; the event engine only ever runs
   [cb_eval]. *)
type comb_desc =
  | CInit of Runtime.scope * Runtime.var * expr (* decl initializer *)
  | CAssign of Runtime.scope * lvalue * expr (* continuous assign *)
  | CPortIn of Runtime.scope * Runtime.var * expr (* parent scope, child var *)
  | CPortOut of Runtime.scope * lvalue * Runtime.var (* parent lv, child var *)

type comb = {
  cb_eval : unit -> unit; (* re-evaluate and store *)
  cb_support : Runtime.var list; (* change subscription set *)
  cb_desc : comb_desc;
}

type elaborated = {
  st : Runtime.state;
  procs : process list;
  combs : comb list;
  top_scope : Runtime.scope;
}

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime.Elab_error s)) fmt

let find_module (design : design) name =
  match List.find_opt (fun m -> m.mod_id = name) design with
  | Some m -> m
  | None -> fail "unknown module %s" name

(* Constant evaluation during elaboration reuses the runtime evaluator; the
   state is only consulted for $time (0 during elaboration). *)
let const_int st sc what e =
  match Eval.eval_int st sc e with
  | Some n -> n
  | None -> fail "%s must be a constant expression" what

(* Support set of an expression: variables it reads in [sc]. *)
let expr_support sc (e : expr) : Runtime.var list =
  Verilog.Ast_utils.expr_idents e
  |> List.filter_map (fun name ->
         match Runtime.scope_find sc name with
         | Some (Runtime.Bvar v) when v.Runtime.v_kind <> Runtime.NamedEvent ->
             Some v
         | _ -> None)
  |> List.sort_uniq compare

let lvalue_support sc lv =
  Verilog.Ast_utils.lvalue_base lv
  |> List.filter_map (fun name ->
         match Runtime.scope_find sc name with
         | Some (Runtime.Bvar v) -> Some v
         | _ -> None)

(* Merged declaration info for one name within a module. *)
type decl_info = {
  mutable di_dir : direction option;
  mutable di_kind : net_kind option;
  mutable di_range : range option;
  mutable di_array : range option;
  mutable di_init : expr option;
}

let elaborate ?(max_steps = 2_000_000) ?(max_time = 1_000_000)
    (design : design) ~(top : string) : elaborated =
  let st = Runtime.create ~max_steps ~max_time () in
  let procs = ref [] and combs = ref [] in
  let add_comb cb = combs := cb :: !combs in

  let rec instantiate ~depth ~path ~(overrides : (string * Vec.t) list)
      (m : module_decl) : Runtime.scope =
    if depth > 64 then fail "instantiation too deep (recursive modules?)";
    let sc = Runtime.scope_create ~path ~module_name:m.mod_id in
    st.scopes <- sc :: st.scopes;

    (* Pass 1: parameters, in declaration order so later defaults can use
       earlier parameters. *)
    let param_order = ref [] in
    List.iter
      (fun item ->
        match item.it with
        | ParamDecl (local, pairs) ->
            List.iter
              (fun (name, default) ->
                if not local then param_order := name :: !param_order;
                let value =
                  match List.assoc_opt name overrides with
                  | Some v when not local -> v
                  | _ -> Packed.to_vec (Eval.eval st sc default)
                in
                Hashtbl.replace sc.sc_bindings name (Runtime.Bconst value))
              pairs
        | _ -> ())
      m.items;

    (* Pass 2: merge declarations per name. *)
    let decls : (string, decl_info) Hashtbl.t = Hashtbl.create 16 in
    let decl_order = ref [] in
    let info name =
      match Hashtbl.find_opt decls name with
      | Some d -> d
      | None ->
          let d =
            {
              di_dir = None;
              di_kind = None;
              di_range = None;
              di_array = None;
              di_init = None;
            }
          in
          Hashtbl.add decls name d;
          decl_order := name :: !decl_order;
          d
    in
    List.iter
      (fun item ->
        match item.it with
        | PortDecl (dir, kind, range, names) ->
            List.iter
              (fun n ->
                let d = info n in
                d.di_dir <- Some dir;
                if kind <> None then d.di_kind <- kind;
                if range <> None then d.di_range <- range)
              names
        | NetDecl (kind, range, ds) ->
            List.iter
              (fun dd ->
                let d = info dd.d_name in
                d.di_kind <- Some kind;
                if range <> None then d.di_range <- range;
                if dd.d_array <> None then d.di_array <- dd.d_array;
                if dd.d_init <> None then d.di_init <- dd.d_init)
              ds
        | _ -> ())
      m.items;

    let make_var name (d : decl_info) =
      let msb, lsb =
        match d.di_range with
        | None -> (0, 0)
        | Some r ->
            (const_int st sc "range bound" r.msb, const_int st sc "range bound" r.lsb)
      in
      let kind = Option.value d.di_kind ~default:Wire in
      let msb, lsb = if kind = Integer then (31, 0) else (msb, lsb) in
      let width = abs (msb - lsb) + 1 in
      if width > max_vector_width then
        fail "%s: vector too wide (%d bits)" name width;
      let array =
        match d.di_array with
        | None -> None
        | Some r ->
            let a = const_int st sc "array bound" r.msb
            and b = const_int st sc "array bound" r.lsb in
            if abs (a - b) > 1 lsl 20 then
              fail "%s: array too large" name;
            Some (min a b, max a b)
      in
      let v : Runtime.var =
        {
          v_name = path ^ "." ^ name;
          v_local = name;
          v_kind = (match kind with Wire -> Runtime.Net | Reg | Integer -> Runtime.Variable);
          v_width = width;
          v_msb = msb;
          v_lsb = lsb;
          v_is_output = d.di_dir = Some Output;
          v_array = array;
          v_value = Packed.all_x width;
          v_words =
            (match array with
            | None -> [||]
            | Some (lo, hi) -> Array.make (hi - lo + 1) (Packed.all_x width));
          v_waiters = [];
          v_subscribers = [];
          v_on_waiter_list = false;
        }
      in
      Hashtbl.replace sc.sc_bindings name (Runtime.Bvar v);
      st.all_vars <- v :: st.all_vars;
      Option.map (fun e -> (v, e)) d.di_init
    in
    let inits =
      List.filter_map (fun n -> make_var n (Hashtbl.find decls n)) (List.rev !decl_order)
    in
    (* Declaration initializers (wire w = e / reg r = e), once every
       variable of the module exists: the support of [e] may name one
       declared after [w] (an output port declared ahead of the memory it
       reads), and a support missing it would never re-evaluate [w]. *)
    List.iter
      (fun ((v : Runtime.var), e) ->
        let thunk () = Runtime.set_var st v (Eval.eval st sc e) in
        add_comb
          { cb_eval = thunk; cb_support = expr_support sc e; cb_desc = CInit (sc, v, e) })
      inits;

    (* Pass 3: events, assigns, processes, instances. *)
    List.iteri
      (fun i item ->
        match item.it with
        | ParamDecl _ | PortDecl _ | NetDecl _ | DefineStub _ -> ()
        | EventDecl names ->
            List.iter
              (fun name ->
                let v : Runtime.var =
                  {
                    v_name = path ^ "." ^ name;
                    v_local = name;
                    v_kind = Runtime.NamedEvent;
                    v_width = 1;
                    v_msb = 0;
                    v_lsb = 0;
                    v_is_output = false;
                    v_array = None;
                    v_value = Packed.zero 1;
                    v_words = [||];
                    v_waiters = [];
                    v_subscribers = [];
                    v_on_waiter_list = false;
                  }
                in
                Hashtbl.replace sc.sc_bindings name (Runtime.Bvar v);
                st.all_vars <- v :: st.all_vars)
              names
        | ContAssign assigns ->
            List.iter
              (fun (lhs, rhs) ->
                List.iter
                  (fun (v : Runtime.var) ->
                    if v.v_kind = Runtime.Variable then
                      fail "continuous assignment to reg %s" v.v_local)
                  (lvalue_support sc lhs);
                let thunk () = Eval.assign st sc lhs (Eval.eval st sc rhs) in
                add_comb
                  {
                    cb_eval = thunk;
                    cb_support = expr_support sc rhs;
                    cb_desc = CAssign (sc, lhs, rhs);
                  })
              assigns
        | Always body ->
            procs :=
              { pr_scope = sc; pr_body = body; pr_kind = PAlways; pr_item = i }
              :: !procs
        | Initial body ->
            procs :=
              { pr_scope = sc; pr_body = body; pr_kind = PInitial; pr_item = i }
              :: !procs
        | Instance { mod_name; inst_name; params; conns } ->
            let child_mod = find_module design mod_name in
            (* Parameter overrides are evaluated in the parent scope. *)
            let child_param_names =
              List.concat_map
                (fun item ->
                  match item.it with
                  | ParamDecl (false, pairs) -> List.map fst pairs
                  | _ -> [])
                child_mod.items
            in
            let overrides =
              List.mapi
                (fun i (name_opt, e) ->
                  let v = Packed.to_vec (Eval.eval st sc e) in
                  match name_opt with
                  | Some n -> (n, v)
                  | None -> (
                      match List.nth_opt child_param_names i with
                      | Some n -> (n, v)
                      | None -> fail "too many parameter overrides for %s" mod_name))
                params
            in
            let child_sc =
              instantiate ~depth:(depth + 1)
                ~path:(path ^ "." ^ inst_name)
                ~overrides child_mod
            in
            bind_ports ~parent:sc ~child:child_sc ~child_mod ~inst_name conns
        )
      m.items;
    sc

  and bind_ports ~parent ~child ~(child_mod : module_decl) ~inst_name conns =
    let bindings, extra = Verilog.Deps.resolve_conns child_mod conns in
    if extra <> [] then fail "too many positional connections for %s" inst_name;
    List.iter
      (fun ({ port; dir; conn } : Verilog.Deps.binding) ->
        match conn with
        | None -> ()
        | Some e -> (
            let inner =
              match Runtime.scope_find child port with
              | Some (Runtime.Bvar v) -> v
              | _ -> fail "instance %s has no port %s" inst_name port
            in
            match dir with
            | Some Input ->
                (* Drive the child net from the parent expression. *)
                let thunk () =
                  Runtime.set_var st inner (Eval.eval st parent e)
                in
                add_comb
                  {
                    cb_eval = thunk;
                    cb_support = expr_support parent e;
                    cb_desc = CPortIn (parent, inner, e);
                  }
            | Some Output ->
                (* Drive the parent net from the child variable. The
                   connection expression must be lvalue-convertible. *)
                let lv =
                  match e.e with
                  | Ident n -> LId n
                  | Index (n, i) -> LIndex (n, i)
                  | RangeSel (n, a, b) -> LRange (n, a, b)
                  | _ -> fail "output port %s needs a net connection" port
                in
                List.iter
                  (fun (v : Runtime.var) ->
                    if v.v_kind = Runtime.Variable then
                      fail "output port %s drives reg %s" port v.v_local)
                  (lvalue_support parent lv);
                let thunk () = Eval.assign st parent lv inner.v_value in
                add_comb
                  {
                    cb_eval = thunk;
                    cb_support = [ inner ];
                    cb_desc = CPortOut (parent, lv, inner);
                  }
            | Some Inout -> fail "inout ports are not supported (%s)" port
            | None -> fail "%s is not a port of %s" port child_mod.mod_id))
      bindings
  in

  let top_mod = find_module design top in
  let top_scope = instantiate ~depth:0 ~path:top ~overrides:[] top_mod in
  { st; procs = List.rev !procs; combs = List.rev !combs; top_scope }

(* --- Patch-local elaboration -------------------------------------------- *)

(* The elaboration of [design], derived from [base], the elaboration of
   [base_design] under the same top, when the two designs differ only in
   the bodies of always/initial items: every module physically the same,
   or the same header with the same items but for such bodies. Nothing
   else elaboration reads can differ then, so [design] elaborates to
   [base]'s state, scopes and combinational bindings, with the new bodies
   in the processes of those items (in every scope of their module).
   Returns the derived elaboration and the positions in [procs] of the
   processes whose bodies changed; [None] when the designs differ in
   anything else. *)
let rebind (base : elaborated) ~(base_design : design) (design : design) :
    (elaborated * int list) option =
  let exception Differs in
  (* (module name, changed item index, new body) *)
  let edits = ref [] in
  let diff_items name (bi : item) (i : item) idx =
    if bi != i then
      match (bi.it, i.it) with
      | Always b, Always b' | Initial b, Initial b' ->
          if b != b' then edits := (name, idx, b') :: !edits
      | _ -> raise Differs
  in
  let diff_module (bm : module_decl) (m : module_decl) =
    if bm != m then begin
      if
        (not (String.equal bm.mod_id m.mod_id))
        || bm.mod_ports <> m.mod_ports
        || List.compare_lengths bm.items m.items <> 0
      then raise Differs;
      let before = !edits in
      List.iteri (fun idx (bi, i) -> diff_items m.mod_id bi i idx)
        (List.combine bm.items m.items);
      (* Elaboration instantiates the first module of a name; edits to a
         later namesake would change nothing, but are not worth telling
         apart. *)
      if !edits != before && find_module design m.mod_id != m then
        raise Differs
    end
  in
  match
    if List.compare_lengths base_design design <> 0 then raise Differs;
    List.iter2 diff_module base_design design
  with
  | exception Differs -> None
  | () ->
      let edits = !edits and changed = ref [] in
      let procs =
        List.mapi
          (fun k (p : process) ->
            let name = p.pr_scope.Runtime.sc_module in
            match
              List.find_opt
                (fun (n, idx, _) -> idx = p.pr_item && String.equal n name)
                edits
            with
            | Some (_, _, body) ->
                changed := k :: !changed;
                { p with pr_body = body }
            | None -> p)
          base.procs
      in
      Some ({ base with procs }, List.rev !changed)
