(* ASCII timing diagrams for recorded traces: a quick way to eyeball a
   simulation (or the difference between a faulty design and the oracle)
   without leaving the terminal.

   One row per signal; single-bit signals draw as levels, vectors print
   their value at each change:

     clk          _-_-_-_-
     counter_out  |xxxx |0000      |0001 ...                              *)

open Logic4

let level_char (b : Bit.t) =
  match b with Bit.V0 -> '_' | Bit.V1 -> '-' | Bit.X -> 'x' | Bit.Z -> 'z'

(* Compact value cell: decimal for narrow defined vectors, binary with
   x/z otherwise. *)
let cell (v : Packed.t) =
  match Packed.to_int v with
  | Some n when Packed.width v > 1 -> string_of_int n
  | _ -> Vec.to_string (Packed.to_vec v)

let render (trace : Recorder.trace) : string =
  match trace with
  | [] -> "(empty trace)\n"
  | first :: _ ->
      let names = List.map fst first.values in
      let buf = Buffer.create 1024 in
      let name_w =
        List.fold_left (fun acc n -> max acc (String.length n)) 4 names
      in
      (* Column width per sample: wide enough for any cell at that time. *)
      let widths =
        List.map
          (fun (s : Recorder.sample) ->
            let value_w =
              List.fold_left
                (fun acc (_, v) -> max acc (String.length (cell v)))
                1 s.values
            in
            max value_w (String.length (string_of_int s.t)) + 1)
          trace
      in
      (* Time ruler. *)
      Buffer.add_string buf (Printf.sprintf "%-*s " name_w "time");
      List.iter2
        (fun (s : Recorder.sample) w ->
          Buffer.add_string buf (Printf.sprintf "%-*d" w s.t))
        trace widths;
      Buffer.add_char buf '\n';
      List.iter
        (fun name ->
          Buffer.add_string buf (Printf.sprintf "%-*s " name_w name);
          let prev = ref None in
          List.iter2
            (fun (s : Recorder.sample) w ->
              let v = List.assoc name s.values in
              let s_cell =
                if Packed.width v = 1 then
                  (* level drawing: repeat the level char across the cell *)
                  String.make w (level_char (Packed.get v 0))
                else (
                  let changed = !prev <> Some v in
                  let text = if changed then cell v else "" in
                  let text =
                    if changed && !prev <> None then "|" ^ text else text
                  in
                  Printf.sprintf "%-*s" w
                    (if String.length text > w then String.sub text 0 w
                     else text))
              in
              prev := Some v;
              Buffer.add_string buf s_cell)
            trace widths;
          Buffer.add_char buf '\n')
        names;
      Buffer.contents buf

(* Side-by-side rendering of two traces (e.g. faulty vs oracle), marking
   sample times where any signal disagrees. *)
let render_diff ~(expected : Recorder.trace) ~(actual : Recorder.trace) :
    string =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "--- actual ---\n";
  Buffer.add_string buf (render actual);
  Buffer.add_string buf "--- expected ---\n";
  Buffer.add_string buf (render expected);
  let bad =
    List.filter_map
      (fun (es : Recorder.sample) ->
        match List.find_opt (fun (a : Recorder.sample) -> a.t = es.t) actual with
        | None -> Some es.t
        | Some a ->
            if
              List.exists
                (fun (n, ov) ->
                  match List.assoc_opt n a.values with
                  | Some av ->
                      not (Packed.equal (Packed.resize (Packed.width ov) av) ov)
                  | None -> true)
                es.values
            then Some es.t
            else None)
      expected
  in
  Buffer.add_string buf
    (match bad with
    | [] -> "traces agree at every sampled edge\n"
    | ts ->
        Printf.sprintf "mismatching sample times: %s\n"
          (String.concat ", " (List.map string_of_int ts)));
  Buffer.contents buf
