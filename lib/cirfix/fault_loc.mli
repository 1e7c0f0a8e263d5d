(** Dataflow-based fault localization for HDL descriptions (paper Sec. 3.1,
    Algorithm 2).

    A context-insensitive fixed-point analysis over assignments: starting
    from the set of output signals that mismatch the oracle, it implicates
    assignment statements writing a mismatched identifier (Impl-Data) and
    conditional statements mentioning one (Impl-Ctrl), adds implicated
    subtrees to the localization set, and feeds newly-seen identifiers back
    into the mismatch set (Add-Child) until a fixed point. Unlike
    spectrum-based localization, the result is a uniformly-ranked set,
    reflecting the parallel structure of hardware designs.

    For explainability the analysis additionally records, per node, the
    fixed-point round in which it was implicated; {!suspiciousness} turns
    that distance into a weight in (0, 1] used by the localization journal
    record and the {!heat_lines} source heatmap. The repair search itself
    still treats the set as uniformly ranked.

    The analysis runs over a module's proposal index ({!Index}): each
    statement's written names, identifiers and subtree ids are computed
    once per item, not once per round, and shared by every index derived
    from the one that computed them, so re-localizing a parent (CirFix
    does it for every parent) costs in proportion to the items its patch
    touched plus one pass over the precomputed facts per round. A
    statement implicated in an earlier round is not visited again. The
    module-taking functions build an index and delegate. *)

module IdSet : Set.S with type elt = int
module IdMap : Map.S with type key = int
module NameSet = Index.NameSet

type result = {
  fl : IdSet.t;  (** implicated node ids (statements and expressions) *)
  mismatch : NameSet.t;  (** transitive closure of the mismatch set *)
  iterations : int;  (** fixed-point rounds taken *)
  rounds : int IdMap.t;
      (** round (1-based) in which each implicated node entered the set;
          the domain of this map equals [fl] *)
}

(** All identifiers appearing in a statement subtree, including names
    written by assignments. *)
val stmt_idents : Verilog.Ast.stmt -> NameSet.t

(** Run Algorithm 2 on an indexed module given the initial
    output-mismatch set. *)
val localize_index : Index.t -> mismatch:string list -> result

(** The [fl] set of [localize_index], without the round map. *)
val implicated_ids : Index.t -> mismatch:string list -> IdSet.t

(** [localize m] is [localize_index (Index.of_module m)]. *)
val localize : Verilog.Ast.module_decl -> mismatch:string list -> result

(** [suspiciousness r id] is [1/round] for implicated nodes (1.0 for nodes
    that touch a mismatched output directly), 0 for the rest. *)
val suspiciousness : result -> int -> float

(** The indexed module's statements whose ids are in [fl] (a
    localization set), in module order — the mutation targets. *)
val implicated : Index.t -> IdSet.t -> Verilog.Ast.stmt list

(** [fl_statements m r] is [implicated (Index.of_module m) r.fl]. *)
val fl_statements :
  Verilog.Ast.module_decl -> result -> Verilog.Ast.stmt list

(** Every statement of the module; used when fault localization is disabled
    (ablation) or yields an empty set. *)
val all_statements : Verilog.Ast.module_decl -> Verilog.Ast.stmt list

(** The pretty-printed module, one entry per source line, each with the
    max suspiciousness of the implicated statements whose rendering
    contains that (trimmed) line — the per-line heatmap behind the
    [localization] journal record and the HTML report. Unimplicated lines
    carry weight 0. *)
val heat_lines :
  Verilog.Ast.module_decl -> result -> (string * float) list
