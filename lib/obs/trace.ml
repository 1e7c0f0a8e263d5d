(* Span tracer emitting Chrome trace-event JSON (the format Perfetto and
   chrome://tracing load). Events carry the emitting domain's id as [tid],
   so worker-domain utilization and the speculative-prepare / sequential-
   commit split are directly visible on the timeline.

   The tracer is a process-global sink guarded by a mutex; when no trace
   was requested the [enabled] flag is false and instrumented call sites
   must branch on it — the contract is that a disabled tracer costs one
   boolean load per site, never a closure or an event allocation. Hot
   paths therefore use the [begin_] / [complete] pair (an immediate int
   timestamp, one "X" event at completion); [push] / [pop] emit "B"/"E"
   pairs and track per-thread nesting so imbalanced instrumentation is
   detected rather than silently producing an unreadable trace. *)

type sink = {
  buf : Buffer.t; (* comma-separated rendered events *)
  m : Mutex.t;
  t0_ns : int; (* trace epoch; timestamps are relative microseconds *)
  mutable count : int;
  stacks : (int, string list) Hashtbl.t; (* tid -> open B-span names *)
  mutable imbalance : string list; (* newest first *)
}

let sink : sink option ref = ref None
let enabled_flag = ref false
let detail_flag = ref false

let enabled () = !enabled_flag
let detail () = !detail_flag
let tid () = (Domain.self () :> int)

let start ?(detail = false) () =
  let s =
    {
      buf = Buffer.create 4096;
      m = Mutex.create ();
      t0_ns = Clock.now_ns ();
      count = 0;
      stacks = Hashtbl.create 8;
      imbalance = [];
    }
  in
  sink := Some s;
  detail_flag := detail;
  enabled_flag := true;
  (* Process-name metadata record, so viewers label the track. *)
  Mutex.lock s.m;
  Buffer.add_string s.buf
    (Printf.sprintf
       {|{"name":"process_name","ph":"M","pid":1,"tid":%d,"args":{"name":"cirfix"}}|}
       (tid ()));
  s.count <- 1;
  Mutex.unlock s.m

let emit (s : sink) (event : string) =
  Mutex.lock s.m;
  if s.count > 0 then Buffer.add_string s.buf ",\n";
  Buffer.add_string s.buf event;
  s.count <- s.count + 1;
  Mutex.unlock s.m

let rel_us (s : sink) (t_ns : int) : float = float_of_int (t_ns - s.t0_ns) /. 1e3

let args_str (args : (string * Json.t) list) : string =
  match args with
  | [] -> ""
  | _ -> Printf.sprintf {|,"args":%s|} (Json.to_string (Json.Obj args))

(* Timestamp marking the start of a span; call only when [enabled ()]. *)
let begin_ () : int = Clock.now_ns ()

(* Emit the completed span begun at [start] as one "X" event. *)
let complete ?(cat = "cirfix") ?(args = []) ~(name : string) (start : int) :
    unit =
  match !sink with
  | None -> ()
  | Some s ->
      let now = Clock.now_ns () in
      emit s
        (Printf.sprintf
           {|{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d%s}|}
           (Json.escape_string name) (Json.escape_string cat) (rel_us s start)
           (float_of_int (now - start) /. 1e3)
           (tid ()) (args_str args))

(* Counter track sample ("C" event); values plot as stacked series. *)
let counter ?(cat = "cirfix") ~(name : string) (values : (string * float) list)
    : unit =
  match !sink with
  | None -> ()
  | Some s ->
      let args =
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) values)
      in
      emit s
        (Printf.sprintf
           {|{"name":"%s","cat":"%s","ph":"C","ts":%.3f,"pid":1,"tid":%d,"args":%s}|}
           (Json.escape_string name) (Json.escape_string cat)
           (rel_us s (Clock.now_ns ()))
           (tid ()) (Json.to_string args))

(* Nested span pair: [push] opens a "B" event on this thread's stack,
   [pop] closes it with an "E". Imbalances (a pop with nothing open, or
   spans still open when the trace is rendered) are recorded. *)
let push ?(cat = "cirfix") ?(args = []) (name : string) : unit =
  match !sink with
  | None -> ()
  | Some s ->
      let t = tid () in
      let event =
        Printf.sprintf
          {|{"name":"%s","cat":"%s","ph":"B","ts":%.3f,"pid":1,"tid":%d%s}|}
          (Json.escape_string name) (Json.escape_string cat)
          (rel_us s (Clock.now_ns ()))
          t (args_str args)
      in
      Mutex.lock s.m;
      if s.count > 0 then Buffer.add_string s.buf ",\n";
      Buffer.add_string s.buf event;
      s.count <- s.count + 1;
      Hashtbl.replace s.stacks t
        (name :: Option.value (Hashtbl.find_opt s.stacks t) ~default:[]);
      Mutex.unlock s.m

let pop () : unit =
  match !sink with
  | None -> ()
  | Some s ->
      let t = tid () in
      let event =
        Printf.sprintf {|{"ph":"E","ts":%.3f,"pid":1,"tid":%d}|}
          (rel_us s (Clock.now_ns ()))
          t
      in
      Mutex.lock s.m;
      (match Hashtbl.find_opt s.stacks t with
      | Some (_ :: rest) ->
          Hashtbl.replace s.stacks t rest;
          if s.count > 0 then Buffer.add_string s.buf ",\n";
          Buffer.add_string s.buf event;
          s.count <- s.count + 1
      | Some [] | None ->
          s.imbalance <-
            Printf.sprintf "pop with no open span on tid %d" t :: s.imbalance);
      Mutex.unlock s.m

(* Spans opened with [push] but never closed, plus stray pops — each as a
   human-readable description. Empty on a balanced trace. *)
let imbalances () : string list =
  match !sink with
  | None -> []
  | Some s ->
      Mutex.lock s.m;
      let open_spans =
        Hashtbl.fold
          (fun t stack acc ->
            List.fold_left
              (fun acc name ->
                Printf.sprintf "span %s still open on tid %d" name t :: acc)
              acc stack)
          s.stacks []
      in
      let r = List.rev s.imbalance @ open_spans in
      Mutex.unlock s.m;
      r

let events () : int = match !sink with None -> 0 | Some s -> s.count

(* Convenience wrapper for cold paths where a closure is fine. *)
let span ?cat ?args (name : string) (f : unit -> 'a) : 'a =
  if not !enabled_flag then f ()
  else (
    let t = begin_ () in
    Fun.protect ~finally:(fun () -> complete ?cat ?args ~name t) f)

let render () : string =
  match !sink with
  | None -> {|{"traceEvents":[]}|}
  | Some s ->
      Mutex.lock s.m;
      let body = Buffer.contents s.buf in
      Mutex.unlock s.m;
      Printf.sprintf
        {|{"traceEvents":[%s|}
        body
      ^ "],\"displayTimeUnit\":\"ms\"}"

let stop () : string option =
  match !sink with
  | None -> None
  | Some _ ->
      let doc = render () in
      sink := None;
      enabled_flag := false;
      detail_flag := false;
      Some doc

let write_file (path : string) : unit =
  match stop () with
  | None -> ()
  | Some doc ->
      Out_channel.with_open_text path (fun oc -> output_string oc doc)
