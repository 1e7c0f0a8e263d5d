(* Expected-behaviour information (paper Sec. 4.1.2). The oracle is the
   recorded output wire/register values per clock edge, obtained here — as
   in the paper's benchmark construction — by simulating a
   previously-functioning (golden) version of the design under the
   instrumented testbench.

   It is stored by column so the fitness function can score a candidate
   with word operations on bitplanes: one [times] array, and per signal
   either two [int] plane arrays (at most [Packed.max_packed_width] bits)
   or the [Packed.t] values themselves (wider). *)

open Logic4

type planes =
  | Narrow of { a : int array; b : int array }
  | Wide of Packed.t array

type column = { name : string; width : int; planes : planes }
type t = { times : int array; columns : column array }

exception Oracle_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Oracle_error m)) fmt
let length (o : t) = Array.length o.times

(* A column over values that all have width [width]. Narrow values are
   canonical [S] (Packed's invariant), so their planes are read as is. *)
let column name width (vals : Packed.t array) : column =
  let planes =
    if width > Packed.max_packed_width then Wide vals
    else
      Narrow
        {
          a = Array.map (function Packed.S s -> s.a | V _ -> assert false) vals;
          b = Array.map (function Packed.S s -> s.b | V _ -> assert false) vals;
        }
  in
  { name; width; planes }

let value (c : column) i : Packed.t =
  match c.planes with
  | Narrow { a; b } -> Packed.of_planes c.width ~a:a.(i) ~b:b.(i)
  | Wide vals -> vals.(i)

let of_trace (tr : Sim.Recorder.trace) : t =
  match tr with
  | [] -> { times = [||]; columns = [||] }
  | first :: _ ->
      let names = Array.of_list (List.map fst first.values) in
      let widths =
        Array.of_list (List.map (fun (_, v) -> Packed.width v) first.values)
      in
      Array.iteri
        (fun j n ->
          if Array.exists (String.equal n) (Array.sub names 0 j) then
            fail "signal %s is recorded twice" n)
        names;
      let n = List.length tr in
      let times = Array.make n 0 in
      let cells = Array.map (fun _ -> Array.make n (Packed.zero 0)) names in
      List.iteri
        (fun i (s : Sim.Recorder.sample) ->
          times.(i) <- s.t;
          if List.length s.values <> Array.length names then
            fail "sample at t=%d records %d signals, the first records %d" s.t
              (List.length s.values) (Array.length names);
          List.iteri
            (fun j (name, v) ->
              if not (String.equal name names.(j)) then
                fail "sample at t=%d records %s where the first records %s"
                  s.t name names.(j);
              if Packed.width v <> widths.(j) then
                fail "signal %s is %d bits wide at t=%d, %d bits at first"
                  name (Packed.width v) s.t widths.(j);
              cells.(j).(i) <- v)
            s.values)
        tr;
      {
        times;
        columns = Array.mapi (fun j n -> column n widths.(j) cells.(j)) names;
      }

let to_trace (o : t) : Sim.Recorder.trace =
  List.init (length o) (fun i ->
      {
        Sim.Recorder.t = o.times.(i);
        values =
          Array.to_list (Array.map (fun c -> (c.name, value c i)) o.columns);
      })

(* Simulate a golden design and capture its trace as the oracle. *)
let of_golden_design ?(max_steps = 2_000_000) ?(max_time = 1_000_000)
    (design : Verilog.Ast.design) (spec : Sim.Simulate.spec) : t =
  match Sim.Simulate.run ~max_steps ~max_time design spec with
  | Error (Sim.Simulate.Elab_failure msg) ->
      fail "golden design failed to elaborate: %s" msg
  | Ok r -> (
      match r.outcome with
      | Sim.Engine.Finished | Sim.Engine.Quiescent -> of_trace r.trace
      | Sim.Engine.Time_limit_reached ->
          fail "golden design hit the time limit"
      | Sim.Engine.Budget_exceeded m ->
          fail "golden design exceeded budget: %s" m)

let signal_names (o : t) =
  Array.to_list (Array.map (fun c -> c.name) o.columns)

(* RQ4: degrade the quality of the correctness information by keeping only
   every [keep]-th sampled timestamp (keep=2 -> 50%, keep=4 -> 25%). *)
let thin ~(keep : int) (o : t) : t =
  if keep <= 1 then o
  else
    let every arr =
      Array.init ((Array.length arr + keep - 1) / keep) (fun i -> arr.(i * keep))
    in
    {
      times = every o.times;
      columns =
        Array.map
          (fun c ->
            let planes =
              match c.planes with
              | Narrow { a; b } -> Narrow { a = every a; b = every b }
              | Wide vals -> Wide (every vals)
            in
            { c with planes })
          o.columns;
    }

(* Keep the named signals — the expected behaviour of a sliced module,
   whose recorder only sees the slice's output ports. *)
let restrict ~(names : string list) (o : t) : t =
  {
    o with
    columns =
      Array.of_list
        (List.filter
           (fun c -> List.mem c.name names)
           (Array.to_list o.columns));
  }

(* Fraction of samples retained, for reporting. *)
let coverage ~(full : t) (o : t) : float =
  if length full = 0 then 0.
  else float_of_int (length o) /. float_of_int (length full)

(* --- CSV persistence (the paper's Figure 2 format) --------------------- *)

let to_csv (o : t) : string = Sim.Recorder.to_string (to_trace o)

(* Rows are numbered as lines of [text], the header being row 1. *)
let of_csv (text : string) : t =
  let rows =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "")
  in
  match rows with
  | [] -> of_trace []
  | (_, header) :: rows ->
      let names =
        match String.split_on_char ',' header with
        | "time" :: rest -> rest
        | _ -> raise (Oracle_error "csv header must start with 'time'")
      in
      (* Each column's width and the row that set it. *)
      let widths = Array.make (List.length names) None in
      let cell row j name text =
        let v =
          try Packed.of_vec (Vec.of_string (String.trim text))
          with Invalid_argument _ ->
            fail "csv row %d, column %s: bad value %S" row name text
        in
        (match widths.(j) with
        | None -> widths.(j) <- Some (Packed.width v, row)
        | Some (w, first) when w <> Packed.width v ->
            fail "csv row %d, column %s: width %d, but width %d in row %d"
              row name (Packed.width v) w first
        | Some _ -> ());
        (name, v)
      in
      of_trace
        (List.map
           (fun (row, line) ->
             match String.split_on_char ',' line with
             | t :: vals when List.length vals = List.length names ->
                 {
                   Sim.Recorder.t =
                     (try int_of_string (String.trim t)
                      with _ -> raise (Oracle_error ("bad timestamp: " ^ t)));
                   values =
                     List.mapi
                       (fun j (n, v) -> cell row j n v)
                       (List.combine names vals);
                 }
             | _ -> raise (Oracle_error ("malformed csv row: " ^ line)))
           rows)
