(* The straightforward baseline from RQ1: enumerate edits uniformly over
   the whole design (no fault localization, no fitness guidance beyond the
   plausibility check), breadth-first over edit depth. The paper reports it
   finds no repairs within the resource bounds on the benchmark suite. *)

open Verilog.Ast

type result = {
  repaired : Patch.t option;
  counters : Evaluate.counters; (* the search evaluator's final table *)
  wall_seconds : float;
  candidates_tried : int;
  sliced : bool; (* slice-based search actually engaged *)
  stitched_verifies : int; (* whole-design re-verifications of winners *)
}

type progress = {
  bp_depth : int;
  bp_tried : int;
  bp_best : float;
  bp_counters : Evaluate.counters;
}

(* Journal cadence: one batch record per this many committed candidates.
   A fixed quantum (rather than the pool's chunk size, which scales with
   [jobs]) keeps the record stream byte-identical across parallelism
   degrees. *)
let journal_quantum = 256

(* All single edits over the module: every delete, every same-class
   replacement, every insertion of an insertable statement after every
   statement, and every template at every eligible node. *)
let single_edits (m : module_decl) : Patch.edit list =
  let idx = Index.of_module m in
  let stmts = Array.to_list (Array.map (fun (f : Index.stmt_facts) -> f.stmt) idx.stmts) in
  let deletes = List.map (fun (s : stmt) -> Patch.Delete s.sid) stmts in
  let replaces =
    List.concat_map
      (fun (dest : stmt) ->
        Array.to_list (Index.same_class idx dest)
        |> List.filter_map (fun (src : stmt) ->
               if src.sid <> dest.sid then Some (Patch.Replace (dest.sid, src))
               else None))
      stmts
  in
  let inserts =
    let pool = Array.to_list (Index.insertion idx) in
    List.concat_map
      (fun (dest : stmt) ->
        List.map (fun src -> Patch.Insert (dest.sid, src)) pool)
      stmts
  in
  let templates =
    List.concat_map
      (fun tpl ->
        Array.to_list (Templates.eligible tpl idx)
        |> List.concat_map (fun target ->
               match tpl with
               | Templates.Sens_posedge | Templates.Sens_negedge
               | Templates.Sens_level ->
                   (* One variant per signal in the module. *)
                   Array.to_list (Index.names idx)
                   |> List.map (fun sig_ -> Patch.Template (tpl, target, Some sig_))
               | _ -> [ Patch.Template (tpl, target, None) ]))
      Templates.all
  in
  deletes @ replaces @ inserts @ templates

let site_chunk = Obs.Profile.site ~span:"brute" "brute.chunk"

let search ?(max_depth = 2) ?on_progress (cfg : Config.t)
    (whole_problem : Problem.t) :
    result =
  let t0 = Obs.Clock.now_ns () in
  (* Slice-based search (see Gp.repair): when the slicer engages, the
     enumeration runs over the sliced module — fewer statements, so fewer
     single edits and cheaper simulations — and every slice-plausible
     patch is stitched back into the whole design and re-verified before
     being reported. *)
  let sl = Slicing.start cfg whole_problem in
  let ev = sl.ev in
  let problem = ev.problem in
  let original = Problem.target_module problem in
  let tried = ref 0 in
  let found = ref None in
  let out_of_resources () =
    Obs.Clock.seconds_since t0 > cfg.max_wall_seconds
    || Evaluate.get ev.table Probes >= cfg.max_probes
  in
  let edits = single_edits original in
  if Obs.Journal.enabled () then
    Obs.Journal.emit
      ([
         ("type", Obs.Json.Str "run");
         ("engine", Obs.Json.Str "brute");
         ("problem", Obs.Json.Str problem.name);
         ("single_edits", Obs.Json.Int (List.length edits));
       ]
      @ Config.journal_fields cfg);
  Slicing.journal sl;
  (* Best fitness seen so far (over committed candidates), reported in
     journal batch records. *)
  let best = ref 0. in
  let journal_batch ~depth =
    Obs.Journal.emit
      ([
        ("type", Obs.Json.Str "batch");
        ("depth", Obs.Json.Int depth);
        ("tried", Obs.Json.Int !tried);
        ("best", Obs.Json.Float !best);
      ]
      @ Evaluate.journal_fields ~final:false (Evaluate.counters ev)
      @ [ ("elapsed_s", Obs.Json.Float (Obs.Clock.seconds_since t0)) ])
  in
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  (* The enumeration order of the sequential sweep, as a lazy stream:
     depth 1, then depth 2 combinations, ... The stream is consumed in
     chunks that are scored across the pool and committed in order, so the
     first repair found — and every counter — is the same at any [jobs]. *)
  let rec depth_seq prefix depth : Patch.t Seq.t =
    if depth = 0 then Seq.return (List.rev prefix)
    else
      Seq.concat_map
        (fun e -> depth_seq (e :: prefix) (depth - 1))
        (List.to_seq edits)
  in
  let chunk_size = max 16 (4 * Pool.size pool) in
  let take_chunk (s : Patch.t Seq.t) : Patch.t array * Patch.t Seq.t =
    let rec go acc n s =
      if n = 0 then (List.rev acc, s)
      else
        match Seq.uncons s with
        | None -> (List.rev acc, Seq.empty)
        | Some (p, rest) -> go (p :: acc) (n - 1) rest
    in
    let l, rest = go [] chunk_size s in
    (Array.of_list l, rest)
  in
  let d = ref 1 in
  while !found = None && !d <= max_depth && not (out_of_resources ()) do
    let stream = ref (depth_seq [] !d) in
    let exhausted = ref false in
    while (not !exhausted) && !found = None && not (out_of_resources ()) do
      let chunk, rest = take_chunk !stream in
      stream := rest;
      if Array.length chunk = 0 then exhausted := true
      else begin
        let on = Obs.Profile.recording () in
        if on then Obs.Profile.enter site_chunk;
        let cands =
          Pool.map pool
            (fun p -> Evaluate.candidate (Patch.apply original p))
            chunk
        in
        let prepared = Evaluate.prepare ev ~pool cands in
        Array.iteri
          (fun i p ->
            if !found = None && not (out_of_resources ()) then (
              incr tried;
              let o = Evaluate.commit prepared i in
              if o.fitness > !best then best := o.fitness;
              if o.fitness >= 1.0 && Slicing.accept sl p then found := Some p;
              if Obs.Journal.enabled () && !tried mod journal_quantum = 0 then
                journal_batch ~depth:!d;
              Option.iter
                (fun f ->
                  f
                    {
                      bp_depth = !d;
                      bp_tried = !tried;
                      bp_best = !best;
                      bp_counters = Evaluate.counters ev;
                    })
                on_progress))
          chunk;
        if on then
          Obs.Profile.leave site_chunk
            ~args:
              [ ("depth", Obs.Json.Int !d); ("chunk", Obs.Json.Int (Array.length chunk)) ]
      end
    done;
    (* Depth boundary: flush a record so partial quanta are visible. The
       boundary is a property of the committed stream, not the pool. *)
    if Obs.Journal.enabled () then journal_batch ~depth:!d;
    incr d
  done;
  (* A copy made now, not the table allocated when the search started:
     the result outlives the run, and a block promoted early pins the
     major-heap pool it landed in (see the end of [Gp.repair]). *)
  let counters = Evaluate.counters ev in
  if Obs.Journal.enabled () then begin
    Obs.Journal.emit
      [
        ("type", Obs.Json.Str "result");
        ("repaired", Obs.Json.Bool (!found <> None));
        ( "edits",
          match !found with
          | None -> Obs.Json.Null
          | Some p -> Obs.Json.Int (List.length p) );
        ( "patch",
          match !found with
          | None -> Obs.Json.Null
          | Some p -> Obs.Json.Str (Patch.to_string p) );
        ("tried", Obs.Json.Int !tried);
        ("probes", Obs.Json.Int (Evaluate.get counters Probes));
        ("lookups", Obs.Json.Int (Evaluate.get counters Lookups));
        ("memo_hits", Obs.Json.Int (Evaluate.get counters Memo_hits));
        ("wall_seconds", Obs.Json.Float (Obs.Clock.seconds_since t0));
      ];
    (* Terminal record; [elapsed_s] is the documented timing field,
       excluded from the cross-[jobs] byte-equality contract. *)
    Obs.Journal.emit
      ([
        ("type", Obs.Json.Str "run_end");
        ( "status",
          Obs.Json.Str (if !found <> None then "repaired" else "no_repair") );
        ("elapsed_s", Obs.Json.Float (Obs.Clock.seconds_since t0));
      ]
      @ Evaluate.journal_fields ~final:true counters
      @ [ ("tried", Obs.Json.Int !tried) ]
      @ Slicing.run_end_fields sl)
  end;
  {
    repaired = !found;
    counters;
    wall_seconds = Obs.Clock.seconds_since t0;
    candidates_tried = !tried;
    sliced = sl.slice <> None;
    stitched_verifies = sl.stitched;
  }
