(* Testbench instrumentation (paper Sec. 3.2): record the values of chosen
   output wires and registers at every rising edge of the clock during an
   otherwise standard simulation. The recorder is an observer installed in
   the scheduler's monitor region, which is exactly what the paper's ~10
   lines of added testbench Verilog achieve. *)

open Logic4

type sample = { t : int; values : (string * Vec.t) list }
type trace = sample list

(* An observed signal and its last sampled value: while [v_value] is
   physically unchanged, samples share one entry instead of converting
   the value to a [Vec.t] again. *)
type observed = {
  o_var : Runtime.var;
  mutable o_last : Packed.t;
  mutable o_entry : string * Vec.t;
}

type t = {
  mutable samples : sample list; (* reverse order while recording *)
  clk : Runtime.var;
  observed : observed list;
  mutable prev_clk : Bit.t;
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
           let entry = (v.v_local, Packed.to_vec v.v_value) in
           { o_var = v; o_last = v.v_value; o_entry = entry })
  in
  if observed = [] then
    raise
      (Runtime.Elab_error
         ("recorder: no output ports found under " ^ instance_path));
  let r = { samples = []; clk; observed; prev_clk = Packed.get clk.v_value 0 } in
  let value o =
    let p = o.o_var.Runtime.v_value in
    if p != o.o_last then begin
      o.o_last <- p;
      o.o_entry <- (o.o_var.v_local, Packed.to_vec p)
    end;
    o.o_entry
  in
  let hook (st : Runtime.state) =
    let cur = Packed.get r.clk.v_value 0 in
    if Runtime.edge_of_transition r.prev_clk cur = Some Runtime.Pos then
      r.samples <- { t = st.now; values = List.map value r.observed } :: r.samples;
    r.prev_clk <- cur
  in
  st.end_of_step_hooks <- st.end_of_step_hooks @ [ hook ];
  r

let trace (r : t) : trace = List.rev r.samples
let signal_names (r : t) = List.map (fun o -> o.o_var.Runtime.v_local) r.observed

(* --- Trace utilities ----------------------------------------------------- *)

let total_bits (tr : trace) =
  List.fold_left
    (fun acc s ->
      List.fold_left (fun acc (_, v) -> acc + Vec.width v) acc s.values)
    0 tr

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
               (List.map (fun (_, v) -> Vec.to_string v) s.values)))
        tr);
  ()

let to_string tr = Format.asprintf "@[<v>%a@]" pp tr
