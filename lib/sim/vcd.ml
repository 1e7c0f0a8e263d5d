(* Value Change Dump (IEEE 1364 Sec. 18) writer: records every variable's
   value changes per time step and renders a standard .vcd file that
   waveform viewers (GTKWave etc.) can open. Attached like the recorder,
   as a monitor-region observer. *)

open Logic4

type watched = {
  w_var : Runtime.var;
  w_code : string; (* short identifier code *)
  mutable w_last : Packed.t option; (* last dumped value *)
}

type t = {
  mutable watched : watched list;
  changes : Buffer.t; (* body of the dump, filled during simulation *)
  mutable last_time : int; (* time of the last emitted #-record *)
  init : Buffer.t; (* $dumpvars block: values captured at attach *)
  st : Runtime.state; (* for flushing changes pending at render time *)
}

(* VCD identifier codes: printable ASCII 33..126, little-endian digits. *)
let code_of_int n =
  let base = 94 and lo = 33 in
  let rec go n acc =
    let acc = acc ^ String.make 1 (Char.chr (lo + (n mod base))) in
    if n < base then acc else go ((n / base) - 1) acc
  in
  go n ""

let value_str (v : Packed.t) =
  if Packed.width v = 1 then String.make 1 (Bit.to_char (Packed.get v 0))
  else "b" ^ Vec.to_string (Packed.to_vec v) ^ " "

let changed w =
  match w.w_last with
  | None -> true
  | Some p -> not (Packed.equal p w.w_var.Runtime.v_value)

(* Watch every scalar variable elaborated in [st] (arrays are skipped:
   VCD has no standard memory representation). *)
let attach (st : Runtime.state) : t =
  let watched =
    st.all_vars
    |> List.filter (fun (v : Runtime.var) ->
           v.v_kind <> Runtime.NamedEvent && v.v_array = None)
    |> List.mapi (fun i (v : Runtime.var) ->
           { w_var = v; w_code = code_of_int i; w_last = None })
  in
  let d =
    {
      watched;
      changes = Buffer.create 1024;
      last_time = 0;
      init = Buffer.create 256;
      st;
    }
  in
  (* $dumpvars-style initial snapshot: every watched variable's value at
     attach time, under an initial #0 record. Change records written later
     at time 0 extend this section rather than re-emitting #0, so the #
     records in the finished dump are strictly increasing. *)
  Buffer.add_string d.init "#0\n$dumpvars\n";
  List.iter
    (fun w ->
      w.w_last <- Some w.w_var.Runtime.v_value;
      Buffer.add_string d.init
        (value_str w.w_var.Runtime.v_value ^ w.w_code ^ "\n"))
    d.watched;
  Buffer.add_string d.init "$end\n";
  let hook (st : Runtime.state) =
    let dirty = List.filter changed d.watched in
    if dirty <> [] then (
      if st.now > d.last_time then (
        Buffer.add_string d.changes (Printf.sprintf "#%d\n" st.now);
        d.last_time <- st.now);
      List.iter
        (fun w ->
          w.w_last <- Some w.w_var.Runtime.v_value;
          Buffer.add_string d.changes
            (value_str w.w_var.Runtime.v_value ^ w.w_code ^ "\n"))
        dirty)
  in
  st.end_of_step_hooks <- st.end_of_step_hooks @ [ hook ];
  d

(* Render the complete VCD document (call after the simulation ends). *)
let to_string ?(timescale = "1ns") (d : t) : string =
  let buf = Buffer.create (Buffer.length d.changes + 1024) in
  Buffer.add_string buf "$date\n  cirfix simulation\n$end\n";
  Buffer.add_string buf "$version\n  cirfix sim 1.0\n$end\n";
  Buffer.add_string buf (Printf.sprintf "$timescale %s $end\n" timescale);
  (* Group variables by hierarchical scope. *)
  let by_scope = Hashtbl.create 8 in
  List.iter
    (fun w ->
      let name = w.w_var.Runtime.v_name in
      let scope =
        match String.rindex_opt name '.' with
        | Some i -> String.sub name 0 i
        | None -> ""
      in
      Hashtbl.replace by_scope scope
        (w :: Option.value (Hashtbl.find_opt by_scope scope) ~default:[]))
    d.watched;
  let scopes = Hashtbl.fold (fun k _ acc -> k :: acc) by_scope [] |> List.sort compare in
  List.iter
    (fun scope ->
      let pretty = if scope = "" then "top" else scope in
      Buffer.add_string buf (Printf.sprintf "$scope module %s $end\n"
                               (String.map (function '.' -> '_' | c -> c) pretty));
      List.iter
        (fun w ->
          Buffer.add_string buf
            (Printf.sprintf "$var %s %d %s %s $end\n"
               (if w.w_var.Runtime.v_kind = Runtime.Net then "wire" else "reg")
               w.w_var.Runtime.v_width w.w_code w.w_var.Runtime.v_local))
        (List.rev (Hashtbl.find by_scope scope));
      Buffer.add_string buf "$upscope $end\n")
    scopes;
  Buffer.add_string buf "$enddefinitions $end\n";
  Buffer.add_buffer buf d.init;
  Buffer.add_buffer buf d.changes;
  (* Changes made in the final timestep are not seen by the monitor-region
     hook when $finish cuts the step short; flush them here. Rendering
     does not mutate [d], so repeated calls produce identical output. *)
  let pending =
    List.filter changed d.watched
  in
  if pending <> [] then (
    if d.st.now > d.last_time then
      Buffer.add_string buf (Printf.sprintf "#%d\n" d.st.Runtime.now);
    List.iter
      (fun w ->
        Buffer.add_string buf (value_str w.w_var.Runtime.v_value ^ w.w_code ^ "\n"))
      pending);
  Buffer.contents buf

let to_file ?timescale (d : t) path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (to_string ?timescale d))
