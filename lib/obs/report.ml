(* Self-contained HTML report over a repair journal: fitness and diversity
   curves as inline SVG, the reject breakdown, per-signal fitness
   attribution, the fault-localization source heatmap, and the winning
   patch's lineage tree — everything a repair run explains about itself,
   rendered into one file with no external assets.

   Like the rest of [obs] this is dependency-free (stdlib + {!Json} only).
   Rendering is deterministic: floats go through fixed printf formats, the
   input record order is preserved, and the wall-clock fields the journal
   carries ([elapsed_s], [wall_seconds]) are never rendered — so the same
   journal bytes always produce the same report bytes, which is what the
   golden-file test pins. *)

(* --- Small helpers -------------------------------------------------------- *)

let html_escape (s : string) : string =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | '\'' -> Buffer.add_string buf "&#39;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Fixed float formats: every float in the report goes through one of
   these, never through [string_of_float]. *)
let f2 = Printf.sprintf "%.2f"
let f4 = Printf.sprintf "%.4f"

let typ (r : Json.t) : string =
  match Json.member "type" r with Some (Json.Str s) -> s | _ -> ""

let s_of (k : string) (r : Json.t) : string =
  match Json.member k r with Some (Json.Str s) -> s | _ -> ""

let i_of (k : string) (r : Json.t) : int =
  match Json.member k r with
  | Some v -> ( match Json.to_int_opt v with Some i -> i | None -> 0)
  | None -> 0

let fl_of (k : string) (r : Json.t) : float =
  match Json.member k r with
  | Some v -> ( match Json.to_float_opt v with Some f -> f | None -> 0.)
  | None -> 0.

let list_of (k : string) (r : Json.t) : Json.t list =
  match Json.member k r with Some (Json.List l) -> l | _ -> []

let of_type (t : string) (records : Json.t list) : Json.t list =
  List.filter (fun r -> typ r = t) records

let first_of_type (t : string) (records : Json.t list) : Json.t option =
  List.find_opt (fun r -> typ r = t) records

let last_of_type (t : string) (records : Json.t list) : Json.t option =
  List.fold_left
    (fun acc r -> if typ r = t then Some r else acc)
    None records

(* Scalar rendered for a table cell; never called on timing fields. *)
let scalar_cell (v : Json.t) : string =
  match v with
  | Json.Null -> "&mdash;"
  | Json.Bool b -> if b then "true" else "false"
  | Json.Int i -> string_of_int i
  | Json.Float f -> f4 f
  | Json.Str s -> html_escape s
  | Json.List _ | Json.Obj _ -> html_escape (Json.to_string v)

(* --- SVG line charts ------------------------------------------------------ *)

type series = {
  s_label : string;
  s_color : string;
  s_points : (float * float) list; (* data coordinates, ascending x *)
}

(* A fixed-geometry line chart: data x in [x_min, x_max] and y in
   [0, y_max] mapped into a 640x240 viewport with room for axis labels.
   All emitted coordinates are %.2f-formatted. *)
let svg_chart ~(x_label : string) ~(x_min : float) ~(x_max : float)
    ~(y_max : float) (series : series list) : string =
  let w = 640. and h = 240. in
  let l = 46. and r = 10. and t = 10. and b = 34. in
  let x_span = if x_max > x_min then x_max -. x_min else 1. in
  let y_span = if y_max > 0. then y_max else 1. in
  let px x = l +. ((x -. x_min) /. x_span *. (w -. l -. r)) in
  let py y = h -. b -. (y /. y_span *. (h -. t -. b)) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg viewBox=\"0 0 %s %s\" width=\"%s\" height=\"%s\" \
        role=\"img\">\n"
       (f2 w) (f2 h) (f2 w) (f2 h));
  (* Axes *)
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"#999\"/>\n"
       (f2 l) (f2 t) (f2 l) (f2 (h -. b)));
  Buffer.add_string buf
    (Printf.sprintf
       "<line x1=\"%s\" y1=\"%s\" x2=\"%s\" y2=\"%s\" stroke=\"#999\"/>\n"
       (f2 l) (f2 (h -. b)) (f2 (w -. r)) (f2 (h -. b)));
  (* Axis extent labels *)
  let text ~x ~y ~anchor s =
    Buffer.add_string buf
      (Printf.sprintf
         "<text x=\"%s\" y=\"%s\" font-size=\"11\" fill=\"#555\" \
          text-anchor=\"%s\">%s</text>\n"
         (f2 x) (f2 y) anchor (html_escape s))
  in
  text ~x:(l -. 6.) ~y:(h -. b +. 4.) ~anchor:"end" "0";
  text ~x:(l -. 6.) ~y:(t +. 8.) ~anchor:"end" (f2 y_max);
  text ~x:l ~y:(h -. b +. 16.) ~anchor:"middle" (f2 x_min);
  text ~x:(w -. r) ~y:(h -. b +. 16.) ~anchor:"end" (f2 x_max);
  text ~x:((l +. w -. r) /. 2.) ~y:(h -. 6.) ~anchor:"middle" x_label;
  (* Series *)
  List.iteri
    (fun i s ->
      let pts =
        s.s_points
        |> List.map (fun (x, y) ->
               Printf.sprintf "%s,%s" (f2 (px x)) (f2 (py y)))
        |> String.concat " "
      in
      (match s.s_points with
      | [ (x, y) ] ->
          (* A single point draws nothing as a polyline; mark it. *)
          Buffer.add_string buf
            (Printf.sprintf
               "<circle cx=\"%s\" cy=\"%s\" r=\"3\" fill=\"%s\"/>\n"
               (f2 (px x)) (f2 (py y)) s.s_color)
      | _ ->
          Buffer.add_string buf
            (Printf.sprintf
               "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" \
                stroke-width=\"1.5\"/>\n"
               pts s.s_color));
      (* Legend swatch + label, top-right, stacked. *)
      let ly = t +. 8. +. (float_of_int i *. 14.) in
      Buffer.add_string buf
        (Printf.sprintf
           "<rect x=\"%s\" y=\"%s\" width=\"10\" height=\"10\" \
            fill=\"%s\"/>\n"
           (f2 (w -. r -. 110.)) (f2 (ly -. 8.)) s.s_color);
      text ~x:(w -. r -. 96.) ~y:ly ~anchor:"start" s.s_label)
    series;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf

(* --- Sections ------------------------------------------------------------- *)

let section buf title body =
  Buffer.add_string buf
    (Printf.sprintf "<section>\n<h2>%s</h2>\n%s</section>\n"
       (html_escape title) body)

let missing (what : string) : string =
  Printf.sprintf "<p class=\"missing\">no %s records in this journal</p>\n"
    (html_escape what)

let table (headers : string list) (rows : string list list) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "<table>\n<tr>";
  List.iter
    (fun h -> Buffer.add_string buf (Printf.sprintf "<th>%s</th>" h))
    headers;
  Buffer.add_string buf "</tr>\n";
  List.iter
    (fun row ->
      Buffer.add_string buf "<tr>";
      List.iter
        (fun c -> Buffer.add_string buf (Printf.sprintf "<td>%s</td>" c))
        row;
      Buffer.add_string buf "</tr>\n")
    rows;
  Buffer.add_string buf "</table>\n";
  Buffer.contents buf

(* Run header: every field of the [run] record (engine, problem, the
   repair configuration) — the record carries no timing fields. *)
let render_run (records : Json.t list) : string =
  match first_of_type "run" records with
  | None -> missing "run"
  | Some (Json.Obj fields) ->
      table [ "field"; "value" ]
        (fields
        |> List.filter (fun (k, _) -> k <> "type")
        |> List.map (fun (k, v) -> [ html_escape k; scalar_cell v ]))
  | Some _ -> missing "run"

(* Outcome summary: the [result] record (minus wall_seconds) plus the
   minimized patch text when the run repaired. *)
let render_result (records : Json.t list) : string =
  match last_of_type "result" records with
  | None -> missing "result"
  | Some r ->
      let repaired =
        match Json.member "repaired" r with
        | Some (Json.Bool true) -> true
        | _ -> false
      in
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "<p class=\"verdict %s\">%s</p>\n"
           (if repaired then "ok" else "fail")
           (if repaired then "Plausible repair found"
            else "No repair within resource limits"));
      (match r with
      | Json.Obj fields ->
          Buffer.add_string buf
            (table [ "field"; "value" ]
               (fields
               |> List.filter (fun (k, _) ->
                      k <> "type" && k <> "patch" && k <> "wall_seconds")
               |> List.map (fun (k, v) -> [ html_escape k; scalar_cell v ])))
      | _ -> ());
      (match Json.member "patch" r with
      | Some (Json.Str p) ->
          Buffer.add_string buf
            (Printf.sprintf "<pre class=\"patch\">%s</pre>\n" (html_escape p))
      | _ -> ());
      Buffer.contents buf

(* Fitness curves: GP journals plot best/mean/median/worst per generation;
   brute-force journals fall back to best-so-far vs candidates tried from
   the [batch] cadence records. *)
let render_fitness (records : Json.t list) : string =
  let gens = of_type "generation" records in
  if gens <> [] then
    let pt k r = (float_of_int (i_of "gen" r), fl_of k r) in
    svg_chart ~x_label:"generation"
      ~x_min:(match gens with g :: _ -> float_of_int (i_of "gen" g) | [] -> 0.)
      ~x_max:
        (List.fold_left
           (fun m g -> Float.max m (float_of_int (i_of "gen" g)))
           1. gens)
      ~y_max:1.0
      [
        { s_label = "best"; s_color = "#2166ac"; s_points = List.map (pt "best") gens };
        { s_label = "mean"; s_color = "#5aae61"; s_points = List.map (pt "mean") gens };
        { s_label = "median"; s_color = "#fdae61"; s_points = List.map (pt "median") gens };
        { s_label = "worst"; s_color = "#b2182b"; s_points = List.map (pt "worst") gens };
      ]
  else
    let batches = of_type "batch" records in
    if batches = [] then missing "generation or batch"
    else
      svg_chart ~x_label:"candidates tried" ~x_min:0.
        ~x_max:
          (List.fold_left
             (fun m b -> Float.max m (float_of_int (i_of "tried" b)))
             1. batches)
        ~y_max:1.0
        [
          {
            s_label = "best";
            s_color = "#2166ac";
            s_points =
              List.map
                (fun b -> (float_of_int (i_of "tried" b), fl_of "best" b))
                batches;
          };
        ]

(* Population diversity (structurally distinct programs) per generation. *)
let render_diversity (records : Json.t list) : string =
  let gens = of_type "generation" records in
  if gens = [] then missing "generation"
  else
    let y_max =
      List.fold_left
        (fun m g -> Float.max m (float_of_int (i_of "population" g)))
        1. gens
    in
    svg_chart ~x_label:"generation"
      ~x_min:(match gens with g :: _ -> float_of_int (i_of "gen" g) | [] -> 0.)
      ~x_max:
        (List.fold_left
           (fun m g -> Float.max m (float_of_int (i_of "gen" g)))
           1. gens)
      ~y_max
      [
        {
          s_label = "distinct";
          s_color = "#762a83";
          s_points =
            List.map
              (fun g ->
                (float_of_int (i_of "gen" g), float_of_int (i_of "diversity" g)))
              gens;
        };
        {
          s_label = "population";
          s_color = "#999999";
          s_points =
            List.map
              (fun g ->
                (float_of_int (i_of "gen" g), float_of_int (i_of "population" g)))
              gens;
        };
      ]

(* Search funnel: the per-operator [funnel] record — how many candidates
   each operator proposed, how far each batch made it through screening,
   simulation, elitism, and the winner's lineage. *)
let render_funnel (records : Json.t list) : string =
  match last_of_type "funnel" records with
  | None -> missing "funnel"
  | Some f ->
      let ops = list_of "operators" f in
      let pct n d =
        if d = 0 then "&mdash;"
        else f2 (100. *. float_of_int n /. float_of_int d) ^ "%"
      in
      table
        [
          "operator";
          "proposed";
          "evaluated";
          "screened";
          "pruned";
          "simulated";
          "survived";
          "in lineage";
          "sim rate";
        ]
        (List.map
           (fun o ->
             [
               html_escape (s_of "op" o);
               string_of_int (i_of "proposed" o);
               string_of_int (i_of "evaluated" o);
               string_of_int (i_of "screened" o);
               string_of_int (i_of "pruned" o);
               string_of_int (i_of "simulated" o);
               string_of_int (i_of "survived" o);
               string_of_int (i_of "in_lineage" o);
               pct (i_of "simulated" o) (i_of "evaluated" o);
             ])
           ops)

(* Where the evaluation budget went: the terminal [run_end] totals. *)
let render_rejects (records : Json.t list) : string =
  match last_of_type "run_end" records with
  | None -> missing "run_end"
  | Some r ->
      let evals = i_of "evals" r in
      let rows =
        [
          ("simulated (cache misses)", i_of "probes" r);
          ("memoized", i_of "memo_hits" r);
          ("compile errors", i_of "compile_errors" r);
          ("static rejects", i_of "static_rejects" r);
          ("oversize rejects", i_of "oversize_rejects" r);
          ("racy rejects", i_of "racy_rejects" r);
          ("semantic-lane hits", i_of "semantic_hits" r);
          ("dead-edit skips", i_of "dead_edit_skips" r);
        ]
      in
      let pct n =
        if evals = 0 then "&mdash;"
        else f2 (100. *. float_of_int n /. float_of_int evals) ^ "%"
      in
      Printf.sprintf "<p>status: <b>%s</b>, %d evaluations requested</p>\n"
        (html_escape (s_of "status" r))
        evals
      ^ table
          [ "disposition"; "count"; "% of evals" ]
          (List.map
             (fun (label, n) ->
               [ html_escape label; string_of_int n; pct n ])
             rows)

(* Static pruning: simulations the dataflow lanes avoided ([run_end]
   totals) and the per-generation hit rates — each generation record
   carries the cumulative lane counters, so the rate is hits over
   lookups at that point in the run. *)
let render_pruning (records : Json.t list) : string =
  match last_of_type "run_end" records with
  | None -> missing "run_end"
  | Some r ->
      let sem = i_of "semantic_hits" r in
      let dead = i_of "dead_edit_skips" r in
      let evals = i_of "evals" r in
      let pct n =
        if evals = 0 then "&mdash;"
        else f2 (100. *. float_of_int n /. float_of_int evals) ^ "%"
      in
      let summary =
        Printf.sprintf
          "<p><b>%d</b> simulations avoided statically (%s of %d \
           evaluations requested)</p>\n"
          (sem + dead)
          (pct (sem + dead))
          evals
        ^ table
            [ "lane"; "count"; "% of evals" ]
            [
              [ "semantic fold"; string_of_int sem; pct sem ];
              [ "dead-edit skip"; string_of_int dead; pct dead ];
            ]
      in
      let gens = of_type "generation" records in
      let chart =
        if gens = [] then ""
        else
          let rate k g =
            let lookups = i_of "lookups" g in
            if lookups = 0 then 0.
            else 100. *. float_of_int (i_of k g) /. float_of_int lookups
          in
          svg_chart ~x_label:"generation (cumulative hit rate, %)"
            ~x_min:
              (match gens with
              | g :: _ -> float_of_int (i_of "gen" g)
              | [] -> 0.)
            ~x_max:
              (List.fold_left
                 (fun m g -> Float.max m (float_of_int (i_of "gen" g)))
                 1. gens)
            ~y_max:100.
            [
              {
                s_label = "semantic";
                s_color = "#2166ac";
                s_points =
                  List.map
                    (fun g ->
                      (float_of_int (i_of "gen" g), rate "semantic_hits" g))
                    gens;
              };
              {
                s_label = "dead-edit";
                s_color = "#b2182b";
                s_points =
                  List.map
                    (fun g ->
                      (float_of_int (i_of "gen" g), rate "dead_edit_skips" g))
                    gens;
              };
            ]
      in
      summary ^ chart

(* Semantic slicing: the slice manifest (emitted when a run's slicing
   engaged, i.e. extracted a strictly smaller cone) and the run_end split
   between slice simulations and whole-design stitched re-verifications.
   Renders a short absence note for runs that searched the whole design. *)
let render_slicing (records : Json.t list) : string =
  match last_of_type "slice" records with
  | None -> missing "slice"
  | Some s ->
      let names k =
        list_of k s
        |> List.map (function Json.Str x -> html_escape x | _ -> "?")
        |> String.concat ", "
      in
      let count k = List.length (list_of k s) in
      let size = i_of "size" s and whole = i_of "whole_size" s in
      let pct =
        if whole = 0 then "&mdash;"
        else f2 (100. *. float_of_int size /. float_of_int whole) ^ "%"
      in
      let counters =
        match last_of_type "run_end" records with
        | None -> ""
        | Some r ->
            Printf.sprintf
              "<p><b>%d</b> simulations ran on the slice; <b>%d</b> \
               slice-plausible candidate(s) were stitched back and \
               re-verified on the whole design</p>\n"
              (i_of "slice_sims" r)
              (i_of "stitched_verifies" r)
      in
      Printf.sprintf
        "<p>module <b>%s</b> sliced to <b>%d/%d</b> AST nodes (%s): %d/%d \
         logic node(s), %d/%d process(es) kept; %d dropped</p>\n"
        (html_escape (s_of "module" s))
        size whole pct (count "kept") (i_of "nodes_total" s)
        (i_of "procs_kept" s) (i_of "procs_total" s) (count "dropped")
      ^ table
          [ "facet"; "names" ]
          [
            [ "mismatch seed"; names "mismatch" ];
            [ "retained outputs"; names "outputs" ];
            [ "retained inputs"; names "inputs" ];
          ]
      ^ counters

(* Per-signal attribution: the seed design (gen 0) next to the best
   candidate of the last journaled generation — which signals improved,
   and when each first diverges from the oracle. *)
let render_attribution (records : Json.t list) : string =
  let atts = of_type "attribution" records in
  if atts = [] then missing "attribution"
  else
    let render_one (r : Json.t) : string =
      let rows =
        list_of "signals" r
        |> List.map (fun s ->
               [
                 html_escape (s_of "name" s);
                 f2 (fl_of "sum" s);
                 f2 (fl_of "total" s);
                 f4 (fl_of "fitness" s);
                 (match Json.member "first_divergence" s with
                 | Some (Json.Int t) -> string_of_int t
                 | _ -> "&mdash;");
               ])
      in
      Printf.sprintf "<h3>generation %d &mdash; fitness %s (%s)</h3>\n%s"
        (i_of "gen" r)
        (f4 (fl_of "fitness" r))
        (html_escape (s_of "status" r))
        (table
           [ "signal"; "sum"; "total"; "fitness"; "first divergence" ]
           rows)
    in
    let first = List.hd atts in
    let last = List.nth atts (List.length atts - 1) in
    if first == last then render_one first
    else render_one first ^ render_one last

(* Source heatmap: the pretty-printed design with per-line suspiciousness
   backgrounds, plus the implicated-node table. *)
let render_localization (records : Json.t list) : string =
  match first_of_type "localization" records with
  | None -> missing "localization"
  | Some r ->
      let mismatch =
        list_of "mismatch" r
        |> List.filter_map Json.to_string_opt
        |> List.map html_escape |> String.concat ", "
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf
           "<p>mismatched outputs: <b>%s</b>; %d nodes implicated in %d \
            fixed-point rounds</p>\n"
           (if mismatch = "" then "&mdash;" else mismatch)
           (i_of "implicated" r) (i_of "iterations" r));
      Buffer.add_string buf "<pre class=\"heat\">";
      List.iter
        (fun line ->
          let text = html_escape (s_of "text" line) in
          let w = fl_of "weight" line in
          if w > 0. then
            Buffer.add_string buf
              (Printf.sprintf
                 "<span style=\"background:rgba(215,48,39,%s)\">%s</span>\n"
                 (f2 (0.15 +. (0.45 *. w)))
                 text)
          else Buffer.add_string buf (text ^ "\n"))
        (list_of "source" r);
      Buffer.add_string buf "</pre>\n";
      Buffer.add_string buf
        (table
           [ "node id"; "round"; "weight" ]
           (list_of "nodes" r
           |> List.map (fun n ->
                  [
                    string_of_int (i_of "id" n);
                    string_of_int (i_of "round" n);
                    f2 (fl_of "weight" n);
                  ])));
      Buffer.contents buf

(* Lineage tree: the winner's genealogy, rendered as nested lists from the
   seed down to the winner. Children are attached in the record's node
   order (already sorted by generation then hash), so the markup is
   deterministic. *)
let render_lineage (records : Json.t list) : string =
  match last_of_type "lineage" records with
  | None -> missing "lineage"
  | Some r ->
      let winner = s_of "winner" r in
      let nodes = list_of "nodes" r in
      let hash_of n = s_of "hash" n in
      let known = List.map hash_of nodes in
      let children h =
        List.filter
          (fun n ->
            list_of "parents" n
            |> List.exists (fun p -> Json.to_string_opt p = Some h))
          nodes
      in
      let short h = if String.length h > 12 then String.sub h 0 12 else h in
      let label n =
        let op = html_escape (s_of "op" n) in
        let target =
          match Json.member "target" n with
          | Some (Json.Int id) -> Printf.sprintf " @ node %d" id
          | _ -> ""
        in
        Printf.sprintf
          "<span class=\"op\">%s</span>%s &mdash; gen %d, fitness %s \
           <code>%s</code>%s"
          op target (i_of "gen" n)
          (f4 (fl_of "fitness" n))
          (html_escape (short (hash_of n)))
          (if hash_of n = winner then " <b class=\"ok\">&#9733; winner</b>"
           else "")
      in
      let buf = Buffer.create 512 in
      let seen = Hashtbl.create 16 in
      let rec render_node n =
        let h = hash_of n in
        if not (Hashtbl.mem seen h) then begin
          Hashtbl.add seen h ();
          Buffer.add_string buf (Printf.sprintf "<li>%s" (label n));
          (match children h with
          | [] -> ()
          | cs ->
              Buffer.add_string buf "<ul>\n";
              List.iter render_node cs;
              Buffer.add_string buf "</ul>\n");
          Buffer.add_string buf "</li>\n"
        end
      in
      let roots =
        List.filter
          (fun n ->
            not
              (list_of "parents" n
              |> List.exists (fun p ->
                     match Json.to_string_opt p with
                     | Some h -> List.mem h known
                     | None -> false)))
          nodes
      in
      Buffer.add_string buf "<ul class=\"lineage\">\n";
      List.iter render_node roots;
      (* Cycle-guard fallback: anything unreachable from a root. *)
      List.iter render_node nodes;
      Buffer.add_string buf "</ul>\n";
      Buffer.contents buf

(* Profile summary record (--profile): the per-region cost ledger as an
   icicle bar (box width proportional to time) plus exact tables. The
   record only exists when the run was profiled. *)
let render_profiling (records : Json.t list) : string =
  match last_of_type "profile" records with
  | None -> missing "profile (pass --profile)"
  | Some p ->
      let regions = list_of "regions" p in
      let total = i_of "total_ns" p in
      let buf = Buffer.create 1024 in
      if regions <> [] && total > 0 then begin
        (* One box per region on a fixed 640px band; labels go inside
           when the box fits them, and the table below carries the exact
           numbers either way. *)
        let palette =
          [|
            "#2166ac"; "#4393c3"; "#92c5de"; "#d6604d"; "#f4a582"; "#b2182b";
            "#888888"; "#bbbbbb";
          |]
        in
        let w = 640. and h = 46. in
        Buffer.add_string buf
          (Printf.sprintf
             "<svg viewBox=\"0 0 %s %s\" width=\"%s\" height=\"%s\" \
              role=\"img\">\n"
             (f2 w) (f2 h) (f2 w) (f2 h));
        let x = ref 0. in
        List.iteri
          (fun i r ->
            let ns = i_of "ns" r in
            let bw = float_of_int ns /. float_of_int total *. w in
            Buffer.add_string buf
              (Printf.sprintf
                 "<rect x=\"%s\" y=\"8\" width=\"%s\" height=\"30\" \
                  fill=\"%s\"><title>%s</title></rect>\n"
                 (f2 !x) (f2 bw)
                 palette.(i mod Array.length palette)
                 (html_escape (s_of "name" r)));
            let name = s_of "name" r in
            if bw >= float_of_int (String.length name) *. 7.5 +. 6. then
              Buffer.add_string buf
                (Printf.sprintf
                   "<text x=\"%s\" y=\"27\" font-size=\"11\" fill=\"#fff\" \
                    text-anchor=\"middle\">%s</text>\n"
                   (f2 (!x +. (bw /. 2.)))
                   (html_escape name));
            x := !x +. bw)
          regions;
        Buffer.add_string buf "</svg>\n"
      end;
      Buffer.add_string buf
        (table
           [ "region"; "time (ms)"; "share"; "entries" ]
           (List.map
              (fun r ->
                let ns = i_of "ns" r in
                [
                  html_escape (s_of "name" r);
                  f2 (float_of_int ns /. 1e6);
                  (if total > 0 then
                     Printf.sprintf "%.1f%%"
                       (100. *. float_of_int ns /. float_of_int total)
                   else "&mdash;");
                  string_of_int (i_of "count" r);
                ])
              regions));
      (match Json.member "gc" p with
      | Some gc ->
          Buffer.add_string buf "<h3>GC work during the profiled run</h3>\n";
          Buffer.add_string buf
            (table
               [
                 "minor words";
                 "promoted words";
                 "major words";
                 "minor collections";
                 "major collections";
               ]
               [
                 [
                   f2 (fl_of "minor_words" gc);
                   f2 (fl_of "promoted_words" gc);
                   f2 (fl_of "major_words" gc);
                   string_of_int (i_of "minor_collections" gc);
                   string_of_int (i_of "major_collections" gc);
                 ];
               ])
      | None -> ());
      Buffer.contents buf

(* Optional metrics dump ({!Metrics.dump} JSON): counters and histograms
   as tables. *)
let render_metrics (metrics : Json.t option) : string =
  match metrics with
  | None -> missing "metrics (pass --metrics)"
  | Some m ->
      let obj k =
        match Json.member k m with Some (Json.Obj l) -> l | _ -> []
      in
      let buf = Buffer.create 512 in
      (match obj "counters" with
      | [] -> ()
      | cs ->
          Buffer.add_string buf "<h3>counters</h3>\n";
          Buffer.add_string buf
            (table [ "counter"; "value" ]
               (List.map (fun (k, v) -> [ html_escape k; scalar_cell v ]) cs)));
      (match obj "histograms" with
      | [] -> ()
      | hs ->
          Buffer.add_string buf "<h3>histograms</h3>\n";
          Buffer.add_string buf
            (table
               [ "histogram"; "count"; "sum"; "rejected"; "buckets" ]
               (List.map
                  (fun (k, h) ->
                    let buckets =
                      match Json.member "buckets" h with
                      | Some (Json.Obj bs) ->
                          bs
                          |> List.map (fun (floor, n) ->
                                 Printf.sprintf "%s:%s" (html_escape floor)
                                   (scalar_cell n))
                          |> String.concat " "
                      | _ -> ""
                    in
                    [
                      html_escape k;
                      string_of_int (i_of "count" h);
                      string_of_int (i_of "sum" h);
                      string_of_int (i_of "rejected" h);
                      buckets;
                    ])
                  hs)));
      if Buffer.length buf = 0 then missing "metrics" else Buffer.contents buf

(* --- Entry point ---------------------------------------------------------- *)

let style =
  {|body{font-family:system-ui,sans-serif;max-width:960px;margin:2em auto;padding:0 1em;color:#222}
h1{border-bottom:2px solid #2166ac;padding-bottom:.2em}
h2{border-bottom:1px solid #ddd;padding-bottom:.15em;margin-top:1.6em}
table{border-collapse:collapse;margin:.5em 0}
th,td{border:1px solid #ccc;padding:.25em .6em;text-align:left;font-size:.9em}
th{background:#f4f6f8}
pre{background:#f7f7f7;padding:.6em;overflow-x:auto;font-size:.85em;line-height:1.35}
pre.heat span{display:inline}
p.missing{color:#888;font-style:italic}
p.verdict.ok{color:#1a7f37;font-weight:bold}
p.verdict.fail{color:#b2182b;font-weight:bold}
ul.lineage{list-style:none;padding-left:0}
ul.lineage ul{list-style:none;padding-left:1.6em;border-left:1px dotted #bbb;margin-left:.3em}
ul.lineage li{margin:.15em 0}
.op{font-weight:bold;color:#2166ac}
b.ok{color:#1a7f37}
code{background:#eef1f4;padding:0 .25em;font-size:.85em}
svg{background:#fcfcfc;border:1px solid #eee;margin:.5em 0}|}

let render ?(metrics : Json.t option) (records : Json.t list) : string =
  let buf = Buffer.create 16384 in
  let problem =
    match first_of_type "run" records with
    | Some r -> s_of "problem" r
    | None -> ""
  in
  let engine =
    match first_of_type "run" records with
    | Some r -> s_of "engine" r
    | None -> ""
  in
  Buffer.add_string buf "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n";
  Buffer.add_string buf "<meta charset=\"utf-8\">\n";
  Buffer.add_string buf
    (Printf.sprintf "<title>cirfix report%s</title>\n"
       (if problem = "" then "" else ": " ^ html_escape problem));
  Buffer.add_string buf
    (Printf.sprintf "<style>%s</style>\n</head>\n<body>\n" style);
  Buffer.add_string buf
    (Printf.sprintf "<h1>cirfix repair report%s</h1>\n"
       (match (problem, engine) with
       | "", "" -> ""
       | p, "" -> ": " ^ html_escape p
       | "", e -> Printf.sprintf " (%s)" (html_escape e)
       | p, e -> Printf.sprintf ": %s (%s)" (html_escape p) (html_escape e)));
  section buf "Run configuration" (render_run records);
  section buf "Outcome" (render_result records);
  section buf "Fitness" (render_fitness records);
  section buf "Diversity" (render_diversity records);
  section buf "Evaluation breakdown" (render_rejects records);
  section buf "Search funnel" (render_funnel records);
  section buf "Static pruning" (render_pruning records);
  section buf "Semantic slicing" (render_slicing records);
  section buf "Per-signal attribution" (render_attribution records);
  section buf "Fault localization" (render_localization records);
  section buf "Patch lineage" (render_lineage records);
  section buf "Profiling" (render_profiling records);
  section buf "Metrics" (render_metrics metrics);
  Buffer.add_string buf "</body>\n</html>\n";
  Buffer.contents buf

(* Parse a JSONL journal into records, skipping blank lines. A journal is
   flushed per record, so a killed run leaves at most one half-written
   record — and only at the end of the file; an unparseable FINAL line is
   therefore dropped (crash resilience) while mid-file garbage is still an
   error naming the line. *)
let parse_journal (contents : string) : (Json.t list, string) result =
  let lines = String.split_on_char '\n' contents in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go acc (lineno + 1) rest
        else (
          match Json.parse line with
          | Ok r -> go (r :: acc) (lineno + 1) rest
          | Error e ->
              (* A line the writer newline-terminated was fully written, so
                 garbage there is a real error; only an unterminated final
                 fragment is a truncated record from a killed run. *)
              if rest = [] then Ok (List.rev acc)
              else Error (Printf.sprintf "line %d: %s" lineno e))
  in
  go [] 1 lines
