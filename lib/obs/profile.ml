(* The span store. See the .mli for the contract.

   Each domain owns a path tree grown on demand: a path id names a stack
   of sites (via a parent array), and the open path and the time of the
   last transition are the only mutable hot state. [enter]/[leave]
   charge [now - last] to the open path without walking the stack, and
   the (path, site) -> child transition is memoized in an int-keyed
   table, so the steady state allocates nothing. A path is open at most
   once at a time, so a frame's opening time is kept per path id. Timeline
   events go to the domain's own buffer, so recording takes no lock. *)

type site = {
  s_id : int;
  s_name : string;
  s_cat : string option; (* span-level: the timeline category *)
  s_tiled : bool;
  s_idle : bool; (* waiting, not work: kept out of paths and total *)
}

let site_name s = s.s_name

(* --- Site interning (global, mutex-guarded, like the Metrics registry) *)

let reg_m = Mutex.create ()
let sites : (string, site) Hashtbl.t = Hashtbl.create 64

(* Transition keys pack (path lsl site_bits) lor site_id into an int;
   site ids are bounded so path ids get the remaining bits. *)
let site_bits = 20

let site ?span ?(tiled = false) ?(idle = false) name : site =
  Mutex.lock reg_m;
  let s =
    match Hashtbl.find_opt sites name with
    | Some s -> s
    | None ->
        let s_id = Hashtbl.length sites in
        let s =
          { s_id; s_name = name; s_cat = span; s_tiled = tiled; s_idle = idle }
        in
        Hashtbl.add sites name s;
        s
  in
  Mutex.unlock reg_m;
  if s.s_id >= 1 lsl site_bits then
    invalid_arg "Profile.site: too many distinct sites";
  if s.s_cat <> span || s.s_tiled <> tiled || s.s_idle <> idle then
    invalid_arg ("Profile.site: " ^ name ^ " redeclared with other properties");
  s

(* --- Per-domain accumulators ------------------------------------------ *)

(* The root sentinel's site: the top level tiles, like a tiled frame. *)
let root =
  { s_id = -1; s_name = ""; s_cat = None; s_tiled = true; s_idle = false }

type event = {
  e_name : string;
  e_cat : string;
  e_tid : int;
  e_ts_ns : int;
  e_dur_ns : int option;
  e_args : (string * Json.t) list;
}

type dstate = {
  tid : int; (* the owning domain's id *)
  mutable cur : int; (* open path id; 0 = nothing open *)
  mutable last_ns : int; (* monotonic time of the last transition *)
  mutable last_closed : int; (* path closed since the last enter; 0 = none *)
  trans : (int, int) Hashtbl.t; (* (cur, site) -> child path id *)
  mutable parent : int array; (* path id -> parent path id *)
  mutable psite : site array; (* path id -> its leaf site *)
  mutable ns : int array; (* path id -> accumulated self time *)
  mutable cnt : int array; (* path id -> entries/bumps *)
  mutable opened : int array; (* path id -> when its open frame opened *)
  mutable n_paths : int; (* used slots; slot 0 is the root sentinel *)
  mutable imbalance : string list; (* newest first *)
  mutable events : event list; (* timeline, newest first *)
}

let fresh_dstate () =
  {
    tid = (Domain.self () :> int);
    cur = 0;
    last_ns = 0;
    last_closed = 0;
    trans = Hashtbl.create 256;
    parent = Array.make 64 0;
    psite = Array.make 64 root;
    ns = Array.make 64 0;
    cnt = Array.make 64 0;
    opened = Array.make 64 0;
    n_paths = 1;
    imbalance = [];
    events = [];
  }

let all_dstates : dstate list ref = ref []

let dkey =
  Domain.DLS.new_key (fun () ->
      let d = fresh_dstate () in
      Mutex.lock reg_m;
      all_dstates := d :: !all_dstates;
      Mutex.unlock reg_m;
      d)

let reset_tree d =
  d.cur <- 0;
  d.last_ns <- 0;
  d.last_closed <- 0;
  Hashtbl.reset d.trans;
  Array.fill d.parent 0 (Array.length d.parent) 0;
  Array.fill d.psite 0 (Array.length d.psite) root;
  Array.fill d.ns 0 (Array.length d.ns) 0;
  Array.fill d.cnt 0 (Array.length d.cnt) 0;
  d.n_paths <- 1;
  d.imbalance <- []

let grow d =
  let cap = Array.length d.ns in
  let cap' = 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  d.parent <- extend d.parent 0;
  d.psite <- extend d.psite root;
  d.ns <- extend d.ns 0;
  d.cnt <- extend d.cnt 0;
  d.opened <- extend d.opened 0

(* Child path of [d.cur] through site [s], created on first use. *)
let transition d (s : site) : int =
  let key = (d.cur lsl site_bits) lor s.s_id in
  match Hashtbl.find d.trans key with
  | id -> id
  | exception Not_found ->
      let id = d.n_paths in
      if id >= Array.length d.ns then grow d;
      d.n_paths <- id + 1;
      d.parent.(id) <- d.cur;
      d.psite.(id) <- s;
      Hashtbl.add d.trans key id;
      id

(* --- Lifecycle --------------------------------------------------------- *)

let enabled_flag = ref false
let timeline_flag = ref false
let recording_flag = ref false
let enabled () = !enabled_flag
let timeline () = !timeline_flag
let recording () = !recording_flag
let set_recording () = recording_flag := !enabled_flag || !timeline_flag

let gc_base = ref (Gc.quick_stat ())

(* Minor words are read with [Gc.minor_words]: [quick_stat]'s count only
   advances at minor collections, so a profile shorter than one minor
   heap would read 0 words. *)
let minor_base = ref 0.

let with_dstates f =
  Mutex.lock reg_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_m) (fun () -> f !all_dstates)

let start () =
  with_dstates (List.iter reset_tree);
  gc_base := Gc.quick_stat ();
  minor_base := Gc.minor_words ();
  enabled_flag := true;
  set_recording ()

let stop () =
  enabled_flag := false;
  set_recording ()

let start_timeline () =
  with_dstates
    (List.iter (fun d ->
         if not !enabled_flag then reset_tree d;
         d.events <- []));
  timeline_flag := true;
  set_recording ()

let stop_timeline () =
  if not !timeline_flag then None
  else begin
    timeline_flag := false;
    set_recording ();
    Some
      (with_dstates
         (List.concat_map (fun d ->
              let evs = List.rev d.events in
              d.events <- [];
              evs)))
  end

(* --- Hot path ---------------------------------------------------------- *)

(* Charge the time since the last transition. Inside a tiled frame (and
   at the root) the gap after a child closed belongs to that child:
   trailing-edge attribution. The glue between consecutive frames of a
   loop is overhead adjacent to the frame that just ran, and charging it
   there lets the children tile their parent's wall time. *)
let charge d now =
  let c = d.cur in
  let target =
    if d.psite.(c).s_tiled && d.last_closed <> 0 && d.parent.(d.last_closed) = c then
      d.last_closed
    else c
  in
  if target <> 0 then d.ns.(target) <- d.ns.(target) + (now - d.last_ns);
  d.last_ns <- now

let enter (s : site) =
  let d = Domain.DLS.get dkey in
  let now = Clock.now_ns () in
  charge d now;
  let id = transition d s in
  d.cnt.(id) <- d.cnt.(id) + 1;
  d.opened.(id) <- now;
  d.last_closed <- 0;
  d.cur <- id

let leave ?(args = []) (s : site) =
  let d = Domain.DLS.get dkey in
  if d.cur = 0 then
    d.imbalance <-
      Printf.sprintf "leave %s with no frame open" s.s_name :: d.imbalance
  else begin
    let now = Clock.now_ns () in
    charge d now;
    if d.psite.(d.cur) != s then
      d.imbalance <-
        Printf.sprintf "leave %s while a different frame is open" s.s_name
        :: d.imbalance
    else begin
      match s.s_cat with
      | Some e_cat when !timeline_flag ->
          let e_ts_ns = d.opened.(d.cur) in
          d.events <-
            { e_name = s.s_name; e_cat; e_tid = d.tid; e_ts_ns;
              e_dur_ns = Some (now - e_ts_ns); e_args = args }
            :: d.events
      | _ -> ()
    end;
    d.last_closed <- d.cur;
    d.cur <- d.parent.(d.cur)
  end

let unwind_to (s : site) =
  let d = Domain.DLS.get dkey in
  let rec is_open id = id <> 0 && (d.psite.(id) == s || is_open d.parent.(id)) in
  if d.cur <> 0 && d.psite.(d.cur) != s && is_open d.cur then begin
    charge d (Clock.now_ns ());
    while d.psite.(d.cur) != s do
      d.cur <- d.parent.(d.cur)
    done;
    d.last_closed <- 0
  end

let framed ?args s f =
  if not !recording_flag then f ()
  else begin
    enter s;
    match f () with
    | v ->
        leave ?args s;
        v
    | exception e ->
        leave ?args s;
        raise e
  end

let bump (s : site) =
  let d = Domain.DLS.get dkey in
  let id = transition d s in
  d.cnt.(id) <- d.cnt.(id) + 1

let sample ~cat ~name values =
  if !timeline_flag then begin
    let d = Domain.DLS.get dkey in
    d.events <-
      { e_name = name; e_cat = cat; e_tid = d.tid; e_ts_ns = Clock.now_ns ();
        e_dur_ns = None; e_args = List.map (fun (k, v) -> (k, Json.Float v)) values }
      :: d.events
  end

(* --- Reporting --------------------------------------------------------- *)

type path = { p_stack : string list; p_ns : int; p_count : int }

type gc_delta = {
  gd_minor_words : float;
  gd_promoted_words : float;
  gd_major_words : float;
  gd_minor_collections : int;
  gd_major_collections : int;
}

type report = {
  r_total_ns : int;
  r_idle_ns : int;
  r_paths : path list;
  r_gc : gc_delta;
  r_imbalances : string list;
}

let imbalances_of ds =
  List.concat_map
    (fun d ->
      if d.cur = 0 then d.imbalance
      else
        Printf.sprintf "frame %s still open" d.psite.(d.cur).s_name
        :: d.imbalance)
    ds

let imbalances () = with_dstates imbalances_of

let report () : report =
  Mutex.lock reg_m;
  (* Fold every domain's tree into one (stack -> ns, count) table; the
     stack key is the folded string itself, which is also what we emit. *)
  let merged : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 256 in
  let idle = ref 0 in
  List.iter
    (fun d ->
      for id = 1 to d.n_paths - 1 do
        if d.psite.(id).s_idle then idle := !idle + d.ns.(id)
        else if d.ns.(id) <> 0 || d.cnt.(id) <> 0 then begin
          let rec stack id acc =
            if id = 0 then acc
            else stack d.parent.(id) (d.psite.(id).s_name :: acc)
          in
          let key = String.concat ";" (stack id []) in
          let nsr, cntr =
            match Hashtbl.find_opt merged key with
            | Some cell -> cell
            | None ->
                let cell = (ref 0, ref 0) in
                Hashtbl.add merged key cell;
                cell
          in
          nsr := !nsr + d.ns.(id);
          cntr := !cntr + d.cnt.(id)
        end
      done)
    !all_dstates;
  let imbal = imbalances_of !all_dstates in
  Mutex.unlock reg_m;
  let paths =
    Hashtbl.fold
      (fun key (nsr, cntr) acc ->
        { p_stack = String.split_on_char ';' key; p_ns = !nsr; p_count = !cntr }
        :: acc)
      merged []
    |> List.sort (fun a b -> compare a.p_stack b.p_stack)
  in
  let total = List.fold_left (fun acc p -> acc + p.p_ns) 0 paths in
  let g0 = !gc_base and g1 = Gc.quick_stat () in
  {
    r_total_ns = total;
    r_idle_ns = !idle;
    r_paths = paths;
    r_gc =
      {
        gd_minor_words = Gc.minor_words () -. !minor_base;
        gd_promoted_words = g1.promoted_words -. g0.promoted_words;
        gd_major_words = g1.major_words -. g0.major_words;
        gd_minor_collections = g1.minor_collections - g0.minor_collections;
        gd_major_collections = g1.major_collections - g0.major_collections;
      };
    r_imbalances = imbal;
  }

(* Sorted descending by time, name as tiebreak, so ledgers are stable. *)
let by_ns l =
  List.sort
    (fun (n1, ns1, _) (n2, ns2, _) ->
      match compare ns2 ns1 with 0 -> compare n1 n2 | c -> c)
    l

let group f (r : report) =
  let tbl : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun p ->
      match f p with
      | None -> ()
      | Some (name, ns, cnt) ->
          let nsr, cntr =
            match Hashtbl.find_opt tbl name with
            | Some cell -> cell
            | None ->
                let cell = (ref 0, ref 0) in
                Hashtbl.add tbl name cell;
                cell
          in
          nsr := !nsr + ns;
          cntr := !cntr + cnt)
    r.r_paths;
  Hashtbl.fold (fun name (nsr, cntr) acc -> (name, !nsr, !cntr) :: acc) tbl []
  |> by_ns

let regions (r : report) =
  group
    (fun p ->
      match p.p_stack with
      | [ root ] -> Some (root, p.p_ns, p.p_count)
      | root :: _ -> Some (root, p.p_ns, 0) (* inclusive; count top entries only *)
      | [] -> None)
    r

let by_leaf (r : report) =
  group
    (fun p ->
      match List.rev p.p_stack with
      | leaf :: _ -> Some (leaf, p.p_ns, p.p_count)
      | [] -> None)
    r

let folded ?(zero_ns = false) (r : report) =
  let buf = Buffer.create 1024 in
  List.iter
    (fun p ->
      Buffer.add_string buf (String.concat ";" p.p_stack);
      Buffer.add_char buf ' ';
      Buffer.add_string buf
        (string_of_int (if zero_ns then p.p_count else p.p_ns));
      Buffer.add_char buf '\n')
    r.r_paths;
  Buffer.contents buf

let to_json (r : report) : Json.t =
  Json.Obj
    [
      ("total_ns", Json.Int r.r_total_ns);
      ("idle_ns", Json.Int r.r_idle_ns);
      ( "paths",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("stack", Json.Str (String.concat ";" p.p_stack));
                   ("ns", Json.Int p.p_ns);
                   ("count", Json.Int p.p_count);
                 ])
             r.r_paths) );
      ( "gc",
        Json.Obj
          [
            ("minor_words", Json.Float r.r_gc.gd_minor_words);
            ("promoted_words", Json.Float r.r_gc.gd_promoted_words);
            ("major_words", Json.Float r.r_gc.gd_major_words);
            ("minor_collections", Json.Int r.r_gc.gd_minor_collections);
            ("major_collections", Json.Int r.r_gc.gd_major_collections);
          ] );
      ( "imbalances",
        Json.List (List.map (fun s -> Json.Str s) r.r_imbalances) );
    ]
