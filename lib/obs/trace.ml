(* Chrome trace-event export (the format Perfetto and chrome://tracing
   load) of the span store in {!Profile}. While a timeline records, every
   closed frame of a span-level site is one "X" event on the track of the
   domain that ran it, so worker-domain utilization and the speculative-
   prepare / sequential-commit split are directly visible. Nesting and
   imbalance detection are the store's; this module only renders.

   The document holds one event per line, timestamps in microseconds
   relative to [start]. *)

let t0_ns = ref 0
let detail_flag = ref false

(* Detail mode: simulations add per-timestep counter samples. *)
let detail () = !detail_flag

let start ?(detail = false) () =
  Profile.start_timeline ();
  t0_ns := Clock.now_ns ();
  detail_flag := detail

(* Counter track sample ("C" event); values plot as stacked series. *)
let counter ?(cat = "cirfix") ~(name : string) (values : (string * float) list)
    : unit =
  Profile.sample ~cat ~name values

let us ns = float_of_int ns /. 1e3

(* A span is a complete ("X") event, a counter sample a "C" event. *)
let render_event buf (e : Profile.event) =
  Printf.bprintf buf {|{"name":"%s","cat":"%s","ph":"%s","ts":%.3f,|}
    (Json.escape_string e.e_name) (Json.escape_string e.e_cat)
    (if e.e_dur_ns = None then "C" else "X")
    (us (e.e_ts_ns - !t0_ns));
  Option.iter (fun d -> Printf.bprintf buf {|"dur":%.3f,|} (us d)) e.e_dur_ns;
  Printf.bprintf buf {|"pid":1,"tid":%d|} e.e_tid;
  if e.e_args <> [] then
    Printf.bprintf buf {|,"args":%s|} (Json.to_string (Json.Obj e.e_args));
  Buffer.add_string buf "},\n"

let stop () : string option =
  match Profile.stop_timeline () with
  | None -> None
  | Some events ->
      detail_flag := false;
      let buf = Buffer.create 4096 in
      (* Process-name metadata record, so viewers label the track. *)
      Printf.bprintf buf
        "{\"traceEvents\":[\n\
         {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"cirfix\"}},\n"
        (Domain.self () :> int);
      List.iter (render_event buf) events;
      (* Drop the last event's separator. *)
      Buffer.truncate buf (Buffer.length buf - 2);
      Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}";
      Some (Buffer.contents buf)

let write_file (path : string) : unit =
  match stop () with
  | None -> ()
  | Some doc ->
      Out_channel.with_open_text path (fun oc -> output_string oc doc)
