(* Self-profiler implementation. See the .mli for the contract.

   Data structure: each domain owns a path tree grown on demand. A path
   id names a stack of sites (via a parent array); the current path and
   the timestamp of the last transition are the only mutable hot state.
   [enter]/[leave] charge [now - last] to the open path, so self time
   accumulates without ever walking the stack, and the (path, site) ->
   child-path transition is memoized in an int-keyed table, making the
   steady-state hot path free of allocation. Trees merge at report
   time. *)

type site = { s_id : int; s_name : string }

let site_name s = s.s_name

(* --- Site interning (global, mutex-guarded, like the Metrics registry) *)

let reg_m = Mutex.create ()
let sites : (string, site) Hashtbl.t = Hashtbl.create 64
let next_id = ref 0

(* Transition keys pack (path lsl site_bits) lor site_id into an int;
   site ids are bounded so path ids get the remaining bits. *)
let site_bits = 20
let max_sites = 1 lsl site_bits

let site name : site =
  Mutex.lock reg_m;
  let s =
    match Hashtbl.find_opt sites name with
    | Some s -> s
    | None ->
        let s = { s_id = !next_id; s_name = name } in
        if s.s_id >= max_sites then (
          Mutex.unlock reg_m;
          invalid_arg "Profile.site: too many distinct sites");
        incr next_id;
        Hashtbl.add sites name s;
        s
  in
  Mutex.unlock reg_m;
  s

(* --- Per-domain accumulators ------------------------------------------ *)

type dstate = {
  mutable cur : int; (* open path id; 0 = nothing open *)
  mutable last_ns : int; (* monotonic time of the last transition *)
  mutable last_top : int; (* last top-level path closed; 0 = none *)
  trans : (int, int) Hashtbl.t; (* (cur, site) -> child path id *)
  mutable parent : int array; (* path id -> parent path id *)
  mutable psite : int array; (* path id -> site id of its leaf *)
  mutable ns : int array; (* path id -> accumulated self time *)
  mutable cnt : int array; (* path id -> entries/bumps *)
  mutable n_paths : int; (* used slots; slot 0 is the root sentinel *)
  mutable imbalance : string list; (* newest first *)
}

let fresh_dstate () =
  {
    cur = 0;
    last_ns = 0;
    last_top = 0;
    trans = Hashtbl.create 256;
    parent = Array.make 64 0;
    psite = Array.make 64 (-1);
    ns = Array.make 64 0;
    cnt = Array.make 64 0;
    n_paths = 1;
    imbalance = [];
  }

let all_dstates : dstate list ref = ref []

let dkey =
  Domain.DLS.new_key (fun () ->
      let d = fresh_dstate () in
      Mutex.lock reg_m;
      all_dstates := d :: !all_dstates;
      Mutex.unlock reg_m;
      d)

let reset_dstate d =
  d.cur <- 0;
  d.last_ns <- 0;
  d.last_top <- 0;
  Hashtbl.reset d.trans;
  Array.fill d.parent 0 (Array.length d.parent) 0;
  Array.fill d.psite 0 (Array.length d.psite) (-1);
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
  d.psite <- extend d.psite (-1);
  d.ns <- extend d.ns 0;
  d.cnt <- extend d.cnt 0

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
      d.psite.(id) <- s.s_id;
      Hashtbl.add d.trans key id;
      id

(* --- Lifecycle --------------------------------------------------------- *)

let enabled_flag = ref false
let enabled () = !enabled_flag

let gc_base = ref (Gc.quick_stat ())

(* Minor words are read with [Gc.minor_words]: [quick_stat]'s count only
   advances at minor collections, so a profile shorter than one minor
   heap would read 0 words. *)
let minor_base = ref 0.

let start () =
  Mutex.lock reg_m;
  List.iter reset_dstate !all_dstates;
  Mutex.unlock reg_m;
  gc_base := Gc.quick_stat ();
  minor_base := Gc.minor_words ();
  enabled_flag := true

let stop () = enabled_flag := false

(* --- Hot path ---------------------------------------------------------- *)

let enter (s : site) =
  let d = Domain.DLS.get dkey in
  let now = Clock.now_ns () in
  if d.cur <> 0 then d.ns.(d.cur) <- d.ns.(d.cur) + (now - d.last_ns)
  else if d.last_top <> 0 then
    (* Trailing-edge attribution: the gap between a top-level frame
       closing and the next one opening is scheduler glue plus profiler
       call overhead, charged to the frame that just closed so ledgers
       tile the measured wall time. *)
    d.ns.(d.last_top) <- d.ns.(d.last_top) + (now - d.last_ns);
  d.last_ns <- now;
  let id = transition d s in
  d.cnt.(id) <- d.cnt.(id) + 1;
  d.cur <- id

let leave (s : site) =
  let d = Domain.DLS.get dkey in
  if d.cur = 0 then
    d.imbalance <-
      Printf.sprintf "leave %s with no frame open" s.s_name :: d.imbalance
  else begin
    let now = Clock.now_ns () in
    d.ns.(d.cur) <- d.ns.(d.cur) + (now - d.last_ns);
    d.last_ns <- now;
    if d.psite.(d.cur) <> s.s_id then
      d.imbalance <-
        Printf.sprintf "leave %s while a different frame is open" s.s_name
        :: d.imbalance;
    let parent = d.parent.(d.cur) in
    if parent = 0 then d.last_top <- d.cur;
    d.cur <- parent
  end

let framed s f =
  enter s;
  match f () with
  | v ->
      leave s;
      v
  | exception e ->
      leave s;
      raise e

let bump (s : site) =
  let d = Domain.DLS.get dkey in
  let id = transition d s in
  d.cnt.(id) <- d.cnt.(id) + 1

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
  r_paths : path list;
  r_gc : gc_delta;
  r_imbalances : string list;
}

let imbalances () =
  Mutex.lock reg_m;
  let out = List.concat_map (fun d -> d.imbalance) !all_dstates in
  Mutex.unlock reg_m;
  out

let report () : report =
  Mutex.lock reg_m;
  let name_of_id =
    let a = Array.make !next_id "?" in
    Hashtbl.iter (fun _ s -> a.(s.s_id) <- s.s_name) sites;
    a
  in
  (* Fold every domain's tree into one (stack -> ns, count) table; the
     stack key is the folded string itself, which is also what we emit. *)
  let merged : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 256 in
  let imbal = ref [] in
  List.iter
    (fun d ->
      imbal := d.imbalance @ !imbal;
      if d.cur <> 0 then
        imbal :=
          Printf.sprintf "frame %s still open at report time"
            name_of_id.(d.psite.(d.cur))
          :: !imbal;
      for id = 1 to d.n_paths - 1 do
        if d.ns.(id) <> 0 || d.cnt.(id) <> 0 then begin
          let rec stack id acc =
            if id = 0 then acc
            else stack d.parent.(id) (name_of_id.(d.psite.(id)) :: acc)
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
    r_paths = paths;
    r_gc =
      {
        gd_minor_words = Gc.minor_words () -. !minor_base;
        gd_promoted_words = g1.promoted_words -. g0.promoted_words;
        gd_major_words = g1.major_words -. g0.major_words;
        gd_minor_collections = g1.minor_collections - g0.minor_collections;
        gd_major_collections = g1.major_collections - g0.major_collections;
      };
    r_imbalances = !imbal;
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

let by_leaf ?prefix (r : report) =
  let keep name =
    match prefix with
    | None -> true
    | Some pre ->
        String.length name >= String.length pre
        && String.sub name 0 (String.length pre) = pre
  in
  group
    (fun p ->
      match List.rev p.p_stack with
      | leaf :: _ when keep leaf -> Some (leaf, p.p_ns, p.p_count)
      | _ -> None)
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
