(* Testbench instrumentation (paper Sec. 3.2): record the values of chosen
   output wires and registers at every rising edge of the clock during an
   otherwise standard simulation. The recorder is an observer installed in
   the scheduler's monitor region, which is exactly what the paper's ~10
   lines of added testbench Verilog achieve.

   A sample holds each observed signal's [Packed.t] value exactly as the
   simulator stores it, so recording converts nothing: the fitness function
   scores those bitplanes directly against the columnar oracle, and only
   output ([pp], [Wave], [Oracle.to_csv]) turns them into bit strings. *)

open Logic4

type sample = { t : int; values : (string * Packed.t) list }
type trace = sample list

(* An observed signal and its last sample entry: while [v_value] is
   physically unchanged, samples share that one entry. *)
type observed = { o_var : Runtime.var; mutable o_entry : string * Packed.t }

type t = {
  mutable samples : sample list; (* reverse order while recording *)
  clk : Runtime.var;
  observed : observed list;
  mutable prev_clk : int; (* LSB class, see [Runtime.lsb_class] *)
}

(* Observe the output ports of instance [instance_path] (e.g. "tb.dut") on
   the rising edges of [clock] (a qualified name, e.g. "tb.clk"). *)
let attach (st : Runtime.state) ~(clock : string) ~(instance_path : string) : t
    =
  let clk =
    match Runtime.find_var st clock with
    | Some v -> v
    | None -> raise (Runtime.Elab_error ("recorder: no such clock " ^ clock))
  in
  let prefix = instance_path ^ "." in
  let observed =
    st.all_vars
    |> List.filter (fun (v : Runtime.var) ->
           v.v_is_output
           && String.length v.v_name > String.length prefix
           && String.sub v.v_name 0 (String.length prefix) = prefix
           && not (String.contains_from v.v_name (String.length prefix) '.'))
    |> List.sort (fun (a : Runtime.var) b -> compare a.v_local b.v_local)
    |> List.map (fun (v : Runtime.var) ->
           { o_var = v; o_entry = (v.v_local, v.v_value) })
  in
  if observed = [] then
    raise
      (Runtime.Elab_error
         ("recorder: no output ports found under " ^ instance_path));
  let r = { samples = []; clk; observed; prev_clk = Runtime.lsb_class_of clk.v_value } in
  let value o =
    let p = o.o_var.Runtime.v_value in
    if p != snd o.o_entry then o.o_entry <- (o.o_var.v_local, p);
    o.o_entry
  in
  let hook (st : Runtime.state) =
    let cur = Runtime.lsb_class_of r.clk.v_value in
    if Runtime.edge_of_classes r.prev_clk cur = Some Runtime.Pos then
      r.samples <- { t = st.now; values = List.map value r.observed } :: r.samples;
    r.prev_clk <- cur
  in
  st.end_of_step_hooks <- st.end_of_step_hooks @ [ hook ];
  r

let trace (r : t) : trace = List.rev r.samples
let signal_names (r : t) = List.map (fun o -> o.o_var.Runtime.v_local) r.observed

(* --- Trace utilities ----------------------------------------------------- *)

(* Render a trace in the CSV-like shape of the paper's Figure 2. *)
let pp fmt (tr : trace) =
  (match tr with
  | [] -> Format.fprintf fmt "(empty trace)"
  | first :: _ ->
      Format.fprintf fmt "time,%s@,"
        (String.concat "," (List.map fst first.values));
      List.iter
        (fun s ->
          Format.fprintf fmt "%d,%s@," s.t
            (String.concat ","
               (List.map
                  (fun (_, v) -> Vec.to_string (Packed.to_vec v))
                  s.values)))
        tr);
  ()

let to_string tr = Format.asprintf "@[<v>%a@]" pp tr
