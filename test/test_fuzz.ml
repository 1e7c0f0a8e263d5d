(* Fuzz tests over the repair pipeline: random operator/template draws
   applied to real benchmark modules must keep every downstream stage total
   — patch application never raises, the materialized module prints to
   valid Verilog that re-parses, and evaluation always returns an outcome
   (possibly Compile_error / Sim_diverged, never an exception). *)

let modules () =
  List.filter_map
    (fun (p : Bench_suite.Projects.t) ->
      match
        Verilog.Parser.parse_design_result (Bench_suite.Projects.design_source p)
      with
      | Ok mods ->
          List.find_opt
            (fun (m : Verilog.Ast.module_decl) -> m.mod_id = p.target)
            mods
      | Error _ -> None)
    [
      Bench_suite.Projects.find "counter";
      Bench_suite.Projects.find "fsm_full";
      Bench_suite.Projects.find "lshift_reg";
      Bench_suite.Projects.find "i2c";
    ]

(* Draw a random edit the way the GP loop does. *)
let random_edit rng cfg m =
  let stmts = Verilog.Ast_utils.stmts_of_module m in
  if Random.State.float rng 1.0 < 0.3 then
    Cirfix.Mutate.template_edit rng m
      ~fl:
        (Cirfix.Fault_loc.IdSet.of_list
           (List.map (fun (s : Verilog.Ast.stmt) -> s.sid) stmts))
  else Cirfix.Mutate.mutate rng cfg m ~fl_stmts:stmts

let test_random_patches_total () =
  let cfg = Cirfix.Config.default in
  let rng = Random.State.make [| 2024 |] in
  List.iter
    (fun original ->
      for _trial = 1 to 40 do
        (* Stack up to 4 random edits. *)
        let patch = ref [] in
        let m = ref original in
        for _ = 1 to 1 + Random.State.int rng 4 do
          match random_edit rng cfg !m with
          | Some e ->
              patch := !patch @ [ e ];
              m := Cirfix.Patch.apply original !patch
          | None -> ()
        done;
        (* The materialized module prints and re-parses. *)
        let printed =
          Verilog.Pp.design_to_string [ { !m with mod_id = "fuzzed" } ]
        in
        match Verilog.Parser.parse_design_result printed with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "mutant no longer parses: %s\npatch: %s\n%s" e
              (Cirfix.Patch.to_string !patch)
              printed
      done)
    (modules ())

let test_random_patches_evaluate () =
  (* Full evaluation of random mutants of the counter: every outcome is a
     well-formed record, never an escaped exception. *)
  let d = Bench_suite.Defects.find 4 in
  let problem = Bench_suite.Defects.problem d in
  let original = Cirfix.Problem.target_module problem in
  let cfg = Cirfix.Config.default in
  let ev = Cirfix.Evaluate.create cfg problem in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 120 do
    let patch = ref [] in
    for _ = 1 to 1 + Random.State.int rng 3 do
      match random_edit rng cfg (Cirfix.Patch.apply original !patch) with
      | Some e -> patch := !patch @ [ e ]
      | None -> ()
    done;
    let o = Cirfix.Evaluate.eval_patch ev original !patch in
    Alcotest.(check bool) "fitness in range" true
      (o.fitness >= 0.0 && o.fitness <= 1.0)
  done

let test_crossover_fuzz () =
  (* Crossover of arbitrary patch pairs conserves edits and applies. *)
  let d = Bench_suite.Defects.find 4 in
  let problem = Bench_suite.Defects.problem d in
  let original = Cirfix.Problem.target_module problem in
  let cfg = Cirfix.Config.default in
  let rng = Random.State.make [| 99 |] in
  let random_patch () =
    let p = ref [] in
    for _ = 1 to Random.State.int rng 5 do
      match random_edit rng cfg original with
      | Some e -> p := e :: !p
      | None -> ()
    done;
    !p
  in
  for _ = 1 to 60 do
    let a = random_patch () and b = random_patch () in
    let c1, c2 = Cirfix.Mutate.crossover rng a b in
    Alcotest.(check int) "conserved"
      (List.length a + List.length b)
      (List.length c1 + List.length c2);
    ignore (Cirfix.Patch.apply original c1);
    ignore (Cirfix.Patch.apply original c2)
  done

let test_minimize_fuzz () =
  (* ddmin over random predicates returns a subset satisfying the test. *)
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 100 do
    let n = 1 + Random.State.int rng 12 in
    let items = List.init n (fun i -> i) in
    let needles =
      List.filter (fun _ -> Random.State.bool rng) items |> function
      | [] -> [ 0 ]
      | l -> l
    in
    let test subset = List.for_all (fun x -> List.mem x subset) needles in
    let r = Cirfix.Minimize.ddmin test items in
    Alcotest.(check bool) "result satisfies" true (test r);
    Alcotest.(check int) "one-minimal" (List.length needles) (List.length r)
  done

let test_random_sources_lex_or_fail_cleanly () =
  (* Arbitrary byte strings either tokenize or raise Lexer.Error — nothing
     else escapes. *)
  let rng = Random.State.make [| 31337 |] in
  for _ = 1 to 300 do
    let len = Random.State.int rng 80 in
    let s =
      String.init len (fun _ -> Char.chr (32 + Random.State.int rng 95))
    in
    match Verilog.Parser.parse_design_result s with
    | Ok _ | Error _ -> ()
  done

(* --- Canonicalizer differential fuzz ------------------------------------

   [Canon.canon_expr] promises semantic equality: the canonical form must
   evaluate bit-identically to the original under the concrete evaluator,
   on every state — including states carrying x and z bits, where most
   classical identities (a&a=a, a|0=a, ...) are unsound and deliberately
   omitted. We drive both through [Sim.Eval.eval] over random expressions
   and random 4-valued variable assignments. *)

let fuzz_env_src =
  "module fuzz_env(a, b, c, d);\n\
  \  parameter P = 5;\n\
  \  input [3:0] a;\n\
  \  input [3:0] b;\n\
  \  input c;\n\
  \  input [7:0] d;\n\
  \  wire [3:0] a;\n\
  \  wire [3:0] b;\n\
  \  wire c;\n\
  \  wire [7:0] d;\n\
   endmodule\n"

let fuzz_env_module () =
  match Verilog.Parser.parse_design_result fuzz_env_src with
  | Ok [ m ] -> m
  | _ -> Alcotest.fail "fuzz_env fixture failed to parse"

let idents = [ ("a", 4); ("b", 4); ("c", 1); ("d", 8) ]

let random_bit rng =
  match Random.State.int rng 6 with
  | 0 | 1 -> Logic4.Bit.V0
  | 2 | 3 -> Logic4.Bit.V1
  | 4 -> Logic4.Bit.X
  | _ -> Logic4.Bit.Z

let random_vec rng w =
  Logic4.Vec.of_bits (Array.init w (fun _ -> random_bit rng))

let unops =
  Verilog.Ast.
    [ Uplus; Uminus; Unot; Ubnot; Uand; Uor; Uxor; Unand; Unor; Uxnor ]

let binops =
  Verilog.Ast.
    [
      Add; Sub; Mul; Div; Mod; Land; Lor; Band; Bor; Bxor; Bxnor; Eq; Neq;
      Ceq; Cneq; Lt; Le; Gt; Ge; Shl; Shr;
    ]

(* Depth-bounded random expression over the fuzz_env nets, the P
   parameter and 4-valued literals; [Call] is excluded ($time and
   friends read simulator state the expression-level harness has none
   of). *)
let rec random_expr rng depth : Verilog.Ast.expr =
  let e d = { Verilog.Ast.eid = 0; e = d } in
  if depth = 0 then
    match Random.State.int rng 4 with
    | 0 ->
        let name, _ = List.nth idents (Random.State.int rng 4) in
        e (Verilog.Ast.Ident name)
    | 1 -> e (Verilog.Ast.Ident "P")
    | 2 -> e (Verilog.Ast.IntLit (Random.State.int rng 17))
    | _ ->
        e (Verilog.Ast.Number (random_vec rng (1 + Random.State.int rng 8)))
  else
    let sub () = random_expr rng (depth - 1) in
    match Random.State.int rng 8 with
    | 0 | 1 ->
        e
          (Verilog.Ast.Unop
             (List.nth unops (Random.State.int rng (List.length unops)), sub ()))
    | 2 | 3 | 4 | 5 ->
        e
          (Verilog.Ast.Binop
             ( List.nth binops (Random.State.int rng (List.length binops)),
               sub (),
               sub () ))
    | 6 -> e (Verilog.Ast.Cond (sub (), sub (), sub ()))
    | _ -> random_expr rng 0

let test_canon_differential () =
  let m = fuzz_env_module () in
  let d = Verilog.Dataflow.denv_of m in
  let p_value =
    match Verilog.Dataflow.param_value d "P" with
    | Some v -> v
    | None -> Alcotest.fail "fuzz_env has no parameter P"
  in
  let rng = Random.State.make [| 0xCA40 |] in
  for _trial = 1 to 2_000 do
    let e = random_expr rng (1 + Random.State.int rng 4) in
    let canon = Verilog.Canon.canon_expr d ~drop_ok:(Random.State.bool rng) e in
    (* One random 4-valued state, shared by both evaluations. *)
    let st = Sim.Runtime.create () in
    let sc = Sim.Runtime.scope_create ~path:"fz" ~module_name:"fuzz_env" in
    Hashtbl.replace sc.Sim.Runtime.sc_bindings "P"
      (Sim.Runtime.Bconst (Logic4.Packed.to_vec p_value));
    List.iter
      (fun (name, w) ->
        Hashtbl.replace sc.Sim.Runtime.sc_bindings name
          (Sim.Runtime.Bvar
             {
               Sim.Runtime.v_name = "fz." ^ name;
               v_local = name;
               v_kind = Sim.Runtime.Net;
               v_width = w;
               v_msb = w - 1;
               v_lsb = 0;
               v_is_output = false;
               v_array = None;
               v_value = Logic4.Packed.of_vec (random_vec rng w);
               v_words = [||];
               v_waiters = [];
               v_subscribers = [];
          v_on_waiter_list = false;
             }))
      idents;
    let show ex = Format.asprintf "%a" Verilog.Pp.pp_expr ex in
    match
      (Sim.Eval.eval st sc e, Sim.Eval.eval st sc canon)
    with
    | p1, p2 ->
        let v1 = Logic4.Packed.to_vec p1 and v2 = Logic4.Packed.to_vec p2 in
        if not (Logic4.Vec.equal v1 v2) then
          Alcotest.failf "canon changed the value of %s\ncanon: %s\n%s <> %s"
            (show e) (show canon)
            (Logic4.Vec.to_string v1)
            (Logic4.Vec.to_string v2)
    | exception exn1 -> (
        (* The original faults (division by zero state is a value in
           logic4, so faults here are width overflows and the like): the
           canonical form must fault identically — canonicalization never
           erases a potentially-faulting subterm. *)
        match Sim.Eval.eval st sc canon with
        | _ ->
            Alcotest.failf "original faults (%s) but canon %s evaluates"
              (Printexc.to_string exn1) (show canon)
        | exception _ -> ())
  done

(* --- Packed differential fuzz -------------------------------------------

   [Logic4.Packed] is the compiled backend's value representation: two
   int bitplanes for widths up to [max_packed_width], falling through to
   [Vec] above it.  Every operation promises to be observationally
   identical to its [Vec] counterpart — this drives random 4-state
   vectors (widths straddling the 61-bit packed/fallthrough boundary)
   through both and compares bit-exactly, including x/z propagation. *)

let random_width rng =
  (* Cluster around the packed boundary and the word sizes where carry
     and sign handling live, with the full 1..70 range still reachable. *)
  match Random.State.int rng 4 with
  | 0 -> 1 + Random.State.int rng 8
  | 1 -> 58 + Random.State.int rng 8 (* 58..65: straddles 61 *)
  | 2 -> List.nth [ 31; 32; 33; 61; 62; 63; 64 ] (Random.State.int rng 7)
  | _ -> 1 + Random.State.int rng 70

let test_packed_differential () =
  let module P = Logic4.Packed in
  let module V = Logic4.Vec in
  (* Reference for [Packed.merge_x]: Sim.Eval's x-condition merge —
     bitwise agreement at the wider width, disagreement becomes X. *)
  let merge_x_vec tv fv =
    let w = max (V.width tv) (V.width fv) in
    V.of_bits
      (Array.init w (fun i ->
           let a = V.get tv i and b = V.get fv i in
           if Logic4.Bit.equal a b then a else Logic4.Bit.X))
  in
  (* Reference for [Verilog.Ops.clog2]: the bit length of n - 1, 0 for
     n = 0, all-x on any x/z bit. *)
  let clog2_vec v =
    if V.has_xz v then V.all_x 32
    else if V.to_bool v = Some false then V.zero 32
    else
      let m = V.sub v (V.of_int (V.width v) 1) in
      let len = ref 0 in
      for i = 0 to V.width m - 1 do
        if V.get m i = Logic4.Bit.V1 then len := i + 1
      done;
      V.of_int 32 !len
  in
  (* Reference for [Packed.to_plane_values]: [a] is set on 1 and x bits,
     [b] on x and z bits. *)
  let plane_vec f v =
    V.of_bits
      (Array.init (V.width v) (fun i ->
           if f (V.get v i) then Logic4.Bit.V1 else Logic4.Bit.V0))
  in
  let rng = Random.State.make [| 0xBACC |] in
  (* Agreement, plus canonical form: [S] exactly up to 61 bits, planes
     clear above the width -- what makes [P.equal] exact. *)
  let check name vv pv =
    if not (V.equal vv (P.to_vec pv)) then
      Alcotest.failf "Packed.%s disagrees with Vec.%s: %s <> %s" name name
        (V.to_string vv)
        (V.to_string (P.to_vec pv))
    else if pv <> P.of_vec vv then
      Alcotest.failf "Packed.%s returned a non-canonical value" name
  in
  (* Ops with preconditions must agree on raising as well. *)
  let check_raising name vf pf =
    let attempt f = try Some (f ()) with Invalid_argument _ -> None in
    match (attempt vf, attempt pf) with
    | Some vv, Some pv -> check name vv pv
    | None, None -> ()
    | _ -> Alcotest.failf "Packed.%s and Vec.%s disagree on raising" name name
  in
  let binops =
    [
      ("add", V.add, P.add);
      ("sub", V.sub, P.sub);
      ("mul", V.mul, P.mul);
      ("div", V.div, P.div);
      ("rem", V.rem, P.rem);
      ("logand", V.logand, P.logand);
      ("logor", V.logor, P.logor);
      ("logxor", V.logxor, P.logxor);
      ("log_and", V.log_and, P.log_and);
      ("log_or", V.log_or, P.log_or);
      ("eq", V.eq, P.eq);
      ("neq", V.neq, P.neq);
      ("lt", V.lt, P.lt);
      ("le", V.le, P.le);
      ("gt", V.gt, P.gt);
      ("ge", V.ge, P.ge);
      ("case_eq", V.case_eq, P.case_eq);
      ("case_neq", V.case_neq, P.case_neq);
      ("concat", V.concat, P.concat);
      ("merge_x", merge_x_vec, P.merge_x);
    ]
  in
  let unops =
    [
      ("neg", V.neg, P.neg);
      ("lognot", V.lognot, P.lognot);
      ("log_not", V.log_not, P.log_not);
      ("reduce_and", V.reduce_and, P.reduce_and);
      ("reduce_or", V.reduce_or, P.reduce_or);
      ("reduce_xor", V.reduce_xor, P.reduce_xor);
      ("clog2", clog2_vec, Verilog.Ops.clog2);
    ]
  in
  for _trial = 1 to 3_000 do
    let wa = random_width rng and wb = random_width rng in
    let va = random_vec rng wa and vb = random_vec rng wb in
    let pa = P.of_vec va and pb = P.of_vec vb in
    List.iter (fun (name, vf, pf) -> check name (vf va vb) (pf pa pb)) binops;
    List.iter (fun (name, vf, pf) -> check name (vf va) (pf pa)) unops;
    (* $clog2 mostly sees defined values. *)
    let da = V.of_bits (Array.init wa (fun _ -> random_bit rng)) in
    let da = plane_vec (fun b -> b = Logic4.Bit.V1) da in
    check "clog2" (clog2_vec da) (Verilog.Ops.clog2 (P.of_vec da));
    (* The planes as values, and back. *)
    let a, b = P.to_plane_values pa in
    check "to_plane_values"
      (plane_vec (fun b -> b = Logic4.Bit.V1 || b = Logic4.Bit.X) va)
      a;
    check "to_plane_values"
      (plane_vec (fun b -> b = Logic4.Bit.X || b = Logic4.Bit.Z) va)
      b;
    check "of_plane_values" va (P.of_plane_values a b);
    (* Shifts with a small, mostly-defined amount (huge or x/z amounts
       are exercised too, just less often). *)
    let amt_v =
      if Random.State.int rng 8 = 0 then random_vec rng 4
      else V.of_int 4 (Random.State.int rng (wa + 4))
    in
    let amt_p = P.of_vec amt_v in
    check "shift_left" (V.shift_left va amt_v) (P.shift_left pa amt_p);
    check "shift_right" (V.shift_right va amt_v) (P.shift_right pa amt_p);
    (* Structure ops: replicate, slice, and slice assignment. *)
    let n = 1 + Random.State.int rng 3 in
    check "replicate" (V.replicate n va) (P.replicate n pa);
    let lsb = Random.State.int rng wa in
    let msb = lsb + Random.State.int rng (wa - lsb) in
    check "select" (V.select va ~msb ~lsb) (P.select pa ~msb ~lsb);
    check "insert"
      (V.insert ~into:va ~msb ~lsb vb)
      (P.insert ~into:pa ~msb ~lsb pb);
    (* Conversions round-trip and scalar views agree. *)
    check "resize" (V.resize wb va) (P.resize wb pa);
    check "of_vec/to_vec" va pa;
    if P.to_bool pa <> V.to_bool va then Alcotest.failf "to_bool disagrees";
    if P.to_int pa <> V.to_int va then Alcotest.failf "to_int disagrees";
    if P.has_xz pa <> V.has_xz va then Alcotest.failf "has_xz disagrees";
    let i = Random.State.int rng (wa + 8) - 4 in
    if P.get pa i <> V.get va i then Alcotest.failf "get disagrees at %d" i;
    (* Equality, mixed widths included, and its agreement with equal
       bits at one width. *)
    if P.equal pa pb <> V.equal va vb then Alcotest.failf "equal disagrees";
    if not (P.equal pa (P.of_vec (V.of_string (V.to_string va)))) then
      Alcotest.failf "equal misses an equal value";
    if P.equal pa (P.resize (wa + 1) pa) then
      Alcotest.failf "equal ignores a width difference";
    (* Ranges past either end, and reversed ones. *)
    let lsb = Random.State.int rng (wa + 8) - 4 in
    let msb = lsb + Random.State.int rng (wa + 6) - 2 in
    check_raising "select"
      (fun () -> V.select va ~msb ~lsb)
      (fun () -> P.select pa ~msb ~lsb);
    check_raising "insert"
      (fun () -> V.insert ~into:va ~msb ~lsb vb)
      (fun () -> P.insert ~into:pa ~msb ~lsb pb);
    (* Resize across the packed boundary in both directions. *)
    List.iter
      (fun w -> check "resize" (V.resize w va) (P.resize w pa))
      [ wa; 60; 61; 62; 1 + Random.State.int rng 70 ]
  done

(* Equal semantic hashes must mean equal canonical modules — the hash is
   a proxy the evaluator trusts, so a collision between genuinely
   different canonical forms would silently conflate two candidates'
   fitness. Checked over random single-assign modules (where random
   expression pairs collide often, since canonicalization folds most of
   them to constants). *)
let test_semantic_hash_collision_free () =
  let rng = Random.State.make [| 0x5EED |] in
  let mk_module e : Verilog.Ast.module_decl =
    let m = fuzz_env_module () in
    let assign =
      {
        Verilog.Ast.iid = 0;
        it =
          Verilog.Ast.ContAssign [ (Verilog.Ast.LId "d", e) ];
      }
    in
    { m with items = m.items @ [ assign ] }
  in
  let seen : (string, string) Hashtbl.t = Hashtbl.create 512 in
  for _trial = 1 to 2_000 do
    let m = mk_module (random_expr rng (1 + Random.State.int rng 4)) in
    let h = Verilog.Canon.semantic_hash m in
    let canon_printed =
      Verilog.Pp.design_to_string [ Verilog.Canon.canon_module m ]
    in
    match Hashtbl.find_opt seen h with
    | None -> Hashtbl.replace seen h canon_printed
    | Some prior ->
        Alcotest.(check string)
          "semantic hash collides only on equal canonical forms" prior
          canon_printed
  done

(* --- Fitness differential fuzz --------------------------------------------

   [Cirfix.Fitness] scores a recorded trace against the columnar oracle by
   counting bits with popcount over bitplanes. The reference below is the
   per-bit scorer it replaced: a list oracle of [Vec] values, joined to
   the actual trace through a timestamp table and [List.assoc], classified
   bit by bit with a running float sum. Random traces (widths 1..70, x/z,
   missing samples and signals, narrower and wider actuals, repeated and
   out-of-order timestamps, thinned and restricted oracles) must score
   exactly alike. *)

module Ref_fitness = struct
  open Logic4

  type sample = int * (string * Vec.t) list

  let of_trace (tr : Sim.Recorder.trace) : sample list =
    List.map
      (fun (s : Sim.Recorder.sample) ->
        (s.t, List.map (fun (n, v) -> (n, Packed.to_vec v)) s.values))
      tr

  (* The list oracle's [thin], [restrict], [coverage] and signal names. *)
  let thin ~keep (o : sample list) =
    if keep <= 1 then o else List.filteri (fun i _ -> i mod keep = 0) o

  let restrict ~names (o : sample list) =
    List.map (fun (t, vs) -> (t, List.filter (fun (n, _) -> List.mem n names) vs)) o

  let coverage ~(full : sample list) (o : sample list) =
    if full = [] then 0.
    else float_of_int (List.length o) /. float_of_int (List.length full)

  let signal_names (o : sample list) =
    match o with [] -> [] | (_, vs) :: _ -> List.map fst vs

  let classify (o : Bit.t) (s : Bit.t) =
    match (o, s) with
    | Bit.V0, Bit.V0 | Bit.V1, Bit.V1 -> `Match
    | Bit.X, Bit.X | Bit.Z, Bit.Z -> `XzMatch
    | Bit.V0, Bit.V1 | Bit.V1, Bit.V0 -> `Mismatch
    | _ -> `XzMismatch

  let by_time (actual : sample list) =
    let tbl = Hashtbl.create 16 in
    List.iter (fun (t, vs) -> Hashtbl.replace tbl t vs) actual;
    tbl

  let lookup tbl t name w =
    match Hashtbl.find_opt tbl t with
    | None -> Vec.all_x w
    | Some l -> (
        match List.assoc_opt name l with Some v -> v | None -> Vec.all_x w)

  let score_vec ~phi ov av =
    let sum = ref 0. and total = ref 0. and diverged = ref false in
    for i = 0 to Vec.width ov - 1 do
      match classify (Vec.get ov i) (Vec.get av i) with
      | `Match ->
          sum := !sum +. 1.;
          total := !total +. 1.
      | `XzMatch ->
          sum := !sum +. phi;
          total := !total +. phi
      | `Mismatch ->
          sum := !sum -. 1.;
          total := !total +. 1.;
          diverged := true
      | `XzMismatch ->
          sum := !sum -. phi;
          total := !total +. phi;
          diverged := true
    done;
    (!sum, !total, !diverged)

  let score_by_signal ~phi ~(expected : sample list) ~(actual : sample list) :
      (string * Cirfix.Fitness.signal_score) list =
    let tbl = by_time actual in
    let cells = Hashtbl.create 8 in
    List.iter
      (fun (t, vs) ->
        List.iter
          (fun (name, ov) ->
            let dsum, dtotal, diverged =
              score_vec ~phi ov (lookup tbl t name (Vec.width ov))
            in
            let sum, total, first =
              Option.value (Hashtbl.find_opt cells name) ~default:(0., 0., None)
            in
            Hashtbl.replace cells name
              ( sum +. dsum,
                total +. dtotal,
                if diverged && first = None then Some t else first ))
          vs)
      expected;
    Hashtbl.fold (fun name c acc -> (name, c) :: acc) cells []
    |> List.sort compare
    |> List.map (fun (name, (s_sum, s_total, first_divergence)) ->
           ( name,
             {
               Cirfix.Fitness.s_sum;
               s_total;
               s_fitness =
                 (if s_total <= 0. then 0. else Float.max 0. s_sum /. s_total);
               first_divergence;
             } ))

  let score ~phi ~expected ~actual : Cirfix.Fitness.score =
    let sum, total =
      List.fold_left
        (fun (sum, total) (_, (s : Cirfix.Fitness.signal_score)) ->
          (sum +. s.s_sum, total +. s.s_total))
        (0., 0.)
        (score_by_signal ~phi ~expected ~actual)
    in
    { sum; total; fitness = (if total <= 0. then 0. else Float.max 0. sum /. total) }

  let mismatched_signals ~(expected : sample list) ~(actual : sample list) =
    let tbl = by_time actual in
    let bad = Hashtbl.create 8 in
    List.iter
      (fun (t, vs) ->
        List.iter
          (fun (name, ov) ->
            let av = lookup tbl t name (Vec.width ov) in
            if not (Vec.equal (Vec.resize (Vec.width ov) av) ov) then
              Hashtbl.replace bad name ())
          vs)
      expected;
    Hashtbl.fold (fun k () acc -> k :: acc) bad [] |> List.sort compare
end

(* A random expected trace: 0..5 signals in random name order, widths
   1..70 (clustered around the 61-bit plane limit), 0..24 samples at
   strictly increasing times, values with x/z. *)
let random_expected rng : Sim.Recorder.trace =
  let names =
    List.filteri (fun _ _ -> Random.State.bool rng) [ "a"; "b"; "c"; "d"; "e" ]
    |> List.map (fun n -> (Random.State.bits rng, n))
    |> List.sort compare |> List.map snd
  in
  let signals = List.map (fun n -> (n, random_width rng)) names in
  let defined = Random.State.bool rng in
  let value w =
    (* Defined-only traces make the fully-matching case common. *)
    Logic4.Packed.of_vec
      (if defined then
         Logic4.Vec.resize w (Logic4.Vec.of_int (min w 30) (Random.State.bits rng))
       else random_vec rng w)
  in
  let time = ref 0 in
  List.init (Random.State.int rng 25) (fun _ ->
      time := !time + 1 + Random.State.int rng 10;
      {
        Sim.Recorder.t = !time;
        values = List.map (fun (n, w) -> (n, value w)) signals;
      })

(* An actual trace derived from [expected]: samples kept, dropped,
   repeated with other values, or joined by samples at other times;
   signals kept, dropped, perturbed, resized narrower or wider, reordered,
   or joined by unknown signals; sometimes out of time order. *)
let random_actual rng (expected : Sim.Recorder.trace) : Sim.Recorder.trace =
  let module P = Logic4.Packed in
  let perturb v =
    let w = P.width v in
    match Random.State.int rng 8 with
    | 0 -> P.of_vec (random_vec rng w)
    | 1 -> P.of_vec (random_vec rng (1 + Random.State.int rng 70))
    | 2 -> P.resize (max 1 (w - 1 - Random.State.int rng 4)) v
    | 3 -> P.resize (w + 1 + Random.State.int rng 4) v
    | 4 ->
        let i = Random.State.int rng w in
        P.of_vec (Logic4.Vec.set (P.to_vec v) i (random_bit rng))
    | _ -> v
  in
  let values vs =
    let vs =
      List.filter_map
        (fun (n, v) ->
          if Random.State.int rng 10 = 0 then None else Some (n, perturb v))
        vs
    in
    let vs =
      if Random.State.int rng 8 = 0 then
        ("zz", P.of_vec (random_vec rng 3)) :: List.rev vs
      else vs
    in
    vs
  in
  let samples =
    List.concat_map
      (fun (s : Sim.Recorder.sample) ->
        match Random.State.int rng 12 with
        | 0 -> []
        | 1 -> [ { s with values = values s.values }; { s with values = values s.values } ]
        | 2 -> [ { s with values = values s.values }; { Sim.Recorder.t = s.t + 1; values = values s.values } ]
        | _ -> [ { s with values = values s.values } ])
      expected
  in
  if Random.State.int rng 6 = 0 then
    List.map (fun s -> (Random.State.bits rng, s)) samples
    |> List.sort (fun (x, _) (y, _) -> compare x y) |> List.map snd
  else samples

(* The oracle and its list reference, thinned and restricted alike. *)
let random_oracle rng expected =
  let o = Cirfix.Oracle.of_trace expected
  and r = Ref_fitness.of_trace expected in
  let o, r =
    if Random.State.int rng 3 = 0 then
      let keep = 1 + Random.State.int rng 4 in
      (Cirfix.Oracle.thin ~keep o, Ref_fitness.thin ~keep r)
    else (o, r)
  in
  if Random.State.int rng 3 = 0 then
    let names = List.filter (fun _ -> Random.State.bool rng) [ "a"; "b"; "c"; "zz" ] in
    (Cirfix.Oracle.restrict ~names o, Ref_fitness.restrict ~names r)
  else (o, r)

let test_fitness_differential () =
  let rng = Random.State.make [| 0xF17 |] in
  let show (name, (s : Cirfix.Fitness.signal_score)) =
    Printf.sprintf "%s: sum %h total %h fitness %h first %s" name s.s_sum
      s.s_total s.s_fitness
      (match s.first_divergence with None -> "-" | Some t -> string_of_int t)
  in
  for case = 1 to 1500 do
    let expected = random_expected rng in
    let actual =
      if Random.State.int rng 10 = 0 then expected else random_actual rng expected
    in
    let o, r = random_oracle rng expected in
    let ra = Ref_fitness.of_trace actual in
    List.iter
      (fun phi ->
        let got = Cirfix.Fitness.score_by_signal ~phi ~expected:o ~actual
        and want = Ref_fitness.score_by_signal ~phi ~expected:r ~actual:ra in
        if got <> want then
          Alcotest.failf "case %d, phi %g: per-signal scores differ\n got: %s\nwant: %s\n%s"
            case phi
            (String.concat "; " (List.map show got))
            (String.concat "; " (List.map show want))
            (Sim.Recorder.to_string actual);
        let got = Cirfix.Fitness.score ~phi ~expected:o ~actual
        and want = Ref_fitness.score ~phi ~expected:r ~actual:ra in
        if got <> want then
          Alcotest.failf "case %d, phi %g: aggregate %h/%h <> %h/%h" case phi got.sum
            got.total want.sum want.total;
        if Cirfix.Fitness.fitness ~phi ~expected:o ~actual <> want.fitness then
          Alcotest.failf "case %d, phi %g: fitness differs" case phi)
      [ 1.; 2.; 3.; 0.5 ];
    let mism = Cirfix.Fitness.mismatched_signals ~expected:o ~actual in
    Alcotest.(check (list string))
      (Printf.sprintf "case %d mismatched signals" case)
      (Ref_fitness.mismatched_signals ~expected:r ~actual:ra)
      mism;
    Alcotest.(check (list string))
      (Printf.sprintf "case %d mismatched = diverging" case)
      (Cirfix.Fitness.score_by_signal ~phi:2. ~expected:o ~actual
      |> List.filter_map (fun (n, (s : Cirfix.Fitness.signal_score)) ->
             if s.first_divergence <> None then Some n else None))
      mism
  done

(* The columnar oracle against the list code it replaced: [to_trace]
   inverts [of_trace] both ways, and [thin], [restrict], [coverage] and
   [signal_names] agree with the list versions. *)
let test_oracle_columnar () =
  let rng = Random.State.make [| 0x0C01 |] in
  let trace_of_ref (r : Ref_fitness.sample list) =
    List.map
      (fun (t, vs) ->
        {
          Sim.Recorder.t;
          values = List.map (fun (n, v) -> (n, Logic4.Packed.of_vec v)) vs;
        })
      r
  in
  for case = 1 to 500 do
    let expected = random_expected rng in
    let full = Cirfix.Oracle.of_trace expected in
    if Cirfix.Oracle.to_trace full <> expected then
      Alcotest.failf "case %d: to_trace (of_trace tr) <> tr" case;
    let o, r = random_oracle rng expected in
    if Cirfix.Oracle.of_trace (Cirfix.Oracle.to_trace o) <> o then
      Alcotest.failf "case %d: of_trace (to_trace o) <> o" case;
    if Cirfix.Oracle.to_trace o <> trace_of_ref r then
      Alcotest.failf "case %d: thin/restrict disagree with the list code" case;
    Alcotest.(check (list string))
      (Printf.sprintf "case %d signal names" case)
      (Ref_fitness.signal_names r)
      (Cirfix.Oracle.signal_names o);
    if
      Cirfix.Oracle.coverage ~full o
      <> Ref_fitness.coverage ~full:(Ref_fitness.of_trace expected) r
    then Alcotest.failf "case %d: coverage differs" case
  done

let () =
  Alcotest.run "fuzz"
    [
      ( "pipeline",
        [
          Alcotest.test_case "mutants reparse" `Slow test_random_patches_total;
          Alcotest.test_case "mutants evaluate" `Slow test_random_patches_evaluate;
          Alcotest.test_case "crossover" `Quick test_crossover_fuzz;
          Alcotest.test_case "minimize" `Quick test_minimize_fuzz;
          Alcotest.test_case "lexer robustness" `Quick
            test_random_sources_lex_or_fail_cleanly;
        ] );
      ( "packed",
        [
          Alcotest.test_case "differential vs Vec" `Slow
            test_packed_differential;
        ] );
      ( "fitness",
        [
          Alcotest.test_case "differential vs per-bit scorer" `Quick
            test_fitness_differential;
          Alcotest.test_case "columnar oracle vs list oracle" `Quick
            test_oracle_columnar;
        ] );
      ( "canon",
        [
          Alcotest.test_case "differential vs simulator" `Slow
            test_canon_differential;
          Alcotest.test_case "semantic hash collision-free" `Slow
            test_semantic_hash_collision_free;
        ] );
    ]
