(* Runtime model for the event-driven simulator: elaborated variables,
   scopes, and the stratified event scheduler (IEEE 1364 Sec. 11: active
   events, then non-blocking assignment updates, then monitor events, then
   time advance). *)

open Logic4

type edge = Pos | Neg | Any

type waiter = { w_edge : edge; w_fired : bool ref; w_k : unit -> unit }

type var_kind =
  | Net (* wire: written by continuous assignments / port bindings *)
  | Variable (* reg, integer: written by procedural assignments *)
  | NamedEvent

type var = {
  v_name : string; (* hierarchical name, e.g. "tb.dut.counter_out" *)
  v_local : string; (* declared name within its module *)
  v_kind : var_kind;
  v_width : int;
  v_msb : int; (* declared range for bit-index mapping *)
  v_lsb : int;
  v_is_output : bool; (* output port of its module *)
  v_array : (int * int) option; (* memory dimension (lo, hi) *)
  mutable v_value : Packed.t;
  mutable v_words : Packed.t array; (* only when v_array is Some *)
  (* Edge-sensitive waiters: one-shot continuations resumed on a matching
     transition. A waiter group suspended on several signals shares one
     [fired] flag; stale entries are purged periodically so fiber stacks
     are not pinned by signals that never change. *)
  mutable v_waiters : waiter list;
  (* Persistent subscribers (continuous assignments, always-comb re-eval)
     scheduled on any value change. *)
  mutable v_subscribers : (unit -> unit) list;
  (* True while this var sits on [state.waiter_vars]; lets the periodic
     waiter purge touch only vars that ever had a waiter instead of
     scanning the whole design each timestep. *)
  mutable v_on_waiter_list : bool;
}

type binding = Bvar of var | Bconst of Vec.t

type scope = {
  sc_path : string;
  sc_module : string; (* module type name *)
  sc_bindings : (string, binding) Hashtbl.t;
}

exception Elab_error of string
exception Finish_called
exception Sim_budget_exceeded of string

let scope_create ~path ~module_name =
  { sc_path = path; sc_module = module_name; sc_bindings = Hashtbl.create 32 }

let scope_find sc name = Hashtbl.find_opt sc.sc_bindings name

let scope_var sc name =
  match scope_find sc name with
  | Some (Bvar v) -> v
  | Some (Bconst _) ->
      raise (Elab_error (Printf.sprintf "%s is a parameter, not a variable" name))
  | None ->
      raise
        (Elab_error
           (Printf.sprintf "undeclared identifier %s in %s" name sc.sc_path))

(* Where a store lands, resolved when the assignment executes (for an
   NBA, when it is scheduled: IEEE evaluates index expressions then). *)
type target =
  | Tnone (* an x/z or out-of-range index: the store is dropped *)
  | Tvar of var (* the whole variable *)
  | Tbits of var (* storage bits [lo..hi] of a variable *)
  | Tword of var (* array word [lo] *)
  | Tfn of (Packed.t -> unit) (* anything else, e.g. a concatenation *)

(* One pending nonblocking update: a target and the value captured when
   the assignment ran, as planes (zero-extended; stores only read the
   planes) or boxed.  Entries are records reused across time slots. *)
type nba = {
  mutable n_target : target;
  mutable n_lo : int;
  mutable n_hi : int;
  mutable n_planes : bool;
  mutable n_a : int;
  mutable n_b : int;
  mutable n_value : Packed.t; (* when not [n_planes] *)
}

(* The NBA log of a time slot: [len] live entries, applied in order. *)
type nba_log = { mutable len : int; mutable entries : nba array }

(* A FIFO of thunks in a growable ring buffer (power-of-two capacity):
   pushing allocates nothing once the buffer has grown to the run's
   deepest queue. *)
type queue = {
  mutable buf : (unit -> unit) array;
  mutable head : int;
  mutable count : int;
}

let idle () = ()
let queue_create () = { buf = Array.make 16 idle; head = 0; count = 0 }

let push q k =
  let n = Array.length q.buf in
  if q.count = n then begin
    let buf = Array.make (2 * n) idle in
    for i = 0 to n - 1 do
      buf.(i) <- q.buf.((q.head + i) land (n - 1))
    done;
    q.buf <- buf;
    q.head <- 0
  end;
  q.buf.((q.head + q.count) land (Array.length q.buf - 1)) <- k;
  q.count <- q.count + 1

(* Requires [q.count > 0]; the slot is cleared so a drained queue pins no
   continuation. *)
let pop q =
  let k = q.buf.(q.head) in
  q.buf.(q.head) <- idle;
  q.head <- (q.head + 1) land (Array.length q.buf - 1);
  q.count <- q.count - 1;
  k

let clear q =
  Array.fill q.buf 0 (Array.length q.buf) idle;
  q.head <- 0;
  q.count <- 0

(* A time slot's pending work. *)
type slot = {
  mutable sl_time : int;
  sl_active : queue;
  mutable sl_nba : nba_log;
}

let fresh_log () = { len = 0; entries = [||] }
let fresh_slot () = { sl_time = 0; sl_active = queue_create (); sl_nba = fresh_log () }

type state = {
  mutable now : int;
  mutable finished : bool;
  (* Future work as a list of slots sorted by distinct pending time.
     The list is almost always a handful of entries (the next clock edge,
     a pending NBA commit, a stimulus timeout), so ordered insertion beats
     a hash table plus a separately maintained sorted key list, and time
     advance is a head pop. *)
  mutable horizon : slot list;
  current : slot;
  mutable steps : int; (* executed statement budget *)
  mutable max_steps : int;
  mutable max_time : int;
  display_log : Buffer.t; (* $display / $monitor output *)
  mutable coverage : (int, int) Hashtbl.t option;
      (* per-statement-node execution counts, when enabled *)
  mutable end_of_step_hooks : (state -> unit) list;
  mutable all_vars : var list;
  mutable waiter_vars : var list; (* vars that may hold stale waiters *)
  mutable slot_pool : slot list; (* recycled future-time slots *)
  mutable scopes : scope list;
  (* Scheduler observability: cheap per-run counters maintained only when
     [obs_enabled] (set by Simulate when a trace or metrics sink is on),
     so a plain run pays one boolean branch per dispatch and nothing
     else. *)
  mutable obs_enabled : bool;
  mutable obs_active_dispatches : int; (* active-region thunks executed *)
  mutable obs_nba_dispatches : int; (* non-blocking updates applied *)
  mutable obs_timesteps : int; (* distinct simulation times visited *)
  mutable obs_max_queue : int; (* deepest active queue seen at dispatch *)
  mutable obs_profile : bool;
      (* self-profiler frames around scheduler regions, processes and
         compiled nodes; set by Simulate when Obs.Profile is started *)
  scratch : Packed.cell; (* working cell of the plane-valued stores *)
}

let create ?(max_steps = 2_000_000) ?(max_time = 1_000_000) () =
  {
    now = 0;
    finished = false;
    horizon = [];
    current = fresh_slot ();
    steps = 0;
    max_steps;
    max_time;
    display_log = Buffer.create 256;
    coverage = None;
    end_of_step_hooks = [];
    all_vars = [];
    waiter_vars = [];
    slot_pool = [];
    scopes = [];
    obs_enabled = false;
    obs_active_dispatches = 0;
    obs_nba_dispatches = 0;
    obs_timesteps = 0;
    obs_max_queue = 0;
    obs_profile = false;
    scratch = Packed.Planes.make 0;
  }

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.max_steps then
    raise (Sim_budget_exceeded "statement budget exhausted")

let enable_coverage st = st.coverage <- Some (Hashtbl.create 256)

let cover st sid =
  match st.coverage with
  | None -> ()
  | Some h ->
      Hashtbl.replace h sid (1 + Option.value (Hashtbl.find_opt h sid) ~default:0)

(* The entry of every executed statement: the budget tick, then the
   coverage count when coverage is on. *)
let enter_stmt st sid =
  tick st;
  match st.coverage with None -> () | Some _ -> cover st sid

let rec find_slot t = function
  | s :: rest when s.sl_time <= t -> if s.sl_time = t then s else find_slot t rest
  | _ -> raise_notrace Not_found

let rec insert_slot s = function
  | x :: rest when x.sl_time < s.sl_time -> x :: insert_slot s rest
  | l -> s :: l

(* Find-or-insert in the sorted horizon; the common cases are an exact
   hit on the first entries or an insertion at/near the head. *)
let slot_at st t =
  match find_slot t st.horizon with
  | s -> s
  | exception Not_found ->
      let s =
        match st.slot_pool with
        | s :: rest ->
            st.slot_pool <- rest;
            s
        | [] -> fresh_slot ()
      in
      s.sl_time <- t;
      st.horizon <- insert_slot s st.horizon;
      s

let schedule_active st thunk = push st.current.sl_active thunk

let schedule_at st ~time thunk =
  if time = st.now then schedule_active st thunk
  else if time > st.now then push (slot_at st time).sl_active thunk
  else invalid_arg "schedule_at: past time"

(* The log entry a nonblocking update at [time] fills next. *)
let nba_entry st ~time =
  let log = if time = st.now then st.current.sl_nba else (slot_at st time).sl_nba in
  let n = Array.length log.entries in
  if log.len = n then
    log.entries <-
      Array.init (max 8 (2 * n)) (fun i ->
          if i < n then log.entries.(i)
          else
            {
              n_target = Tnone;
              n_lo = 0;
              n_hi = 0;
              n_planes = true;
              n_a = 0;
              n_b = 0;
              n_value = Packed.zero 1;
            });
  let e = log.entries.(log.len) in
  log.len <- log.len + 1;
  e

let schedule_nba_planes st ~time target ~lo ~hi ~a ~b =
  let e = nba_entry st ~time in
  e.n_target <- target;
  e.n_lo <- lo;
  e.n_hi <- hi;
  e.n_planes <- true;
  e.n_a <- a;
  e.n_b <- b

let schedule_nba st ~time target ~lo ~hi value =
  let e = nba_entry st ~time in
  e.n_target <- target;
  e.n_lo <- lo;
  e.n_hi <- hi;
  e.n_planes <- false;
  e.n_value <- value

(* Edge classification per IEEE 1364: for vectors the LSB is considered.
   posedge: 0->1, 0->x/z, x/z->1; negedge dual.  An LSB is classed from
   its planes: 0 is V0, 1 is V1, 2 is x/z. *)
let lsb_class a b = if b land 1 <> 0 then 2 else a land 1

let lsb_class_of = function
  | Packed.S { a; b; _ } -> lsb_class a b
  | p -> ( match Packed.get p 0 with Bit.V0 -> 0 | Bit.V1 -> 1 | Bit.X | Bit.Z -> 2)

let edge_of_classes o n : edge option =
  if o = n then None
  else if o = 0 || n = 1 then Some Pos
  else Some Neg

let edge_matches we (fired : edge option) =
  match (we, fired) with
  | Any, _ -> true
  | Pos, Some Pos | Neg, Some Neg -> true
  | _ -> false

(* Fire every unfired waiter matching [edge], in list order; true when
   one fired.  Two entries of one group can sit on the same signal (e.g.
   @(load_en or posedge load_en)): the first sets the shared flag, so the
   group wakes once. *)
let rec wake_matching st edge woke = function
  | [] -> woke
  | w :: rest ->
      if (not !(w.w_fired)) && edge_matches w.w_edge edge then begin
        w.w_fired := true;
        schedule_active st w.w_k;
        wake_matching st edge true rest
      end
      else wake_matching st edge woke rest

(* [l] without its fired entries, sharing the longest unchanged tail: no
   allocation when nothing after the first kept entry is dropped. *)
let rec drop_fired = function
  | [] -> []
  | w :: rest as l ->
      if !(w.w_fired) then drop_fired rest
      else
        let rest' = drop_fired rest in
        if rest' == rest then l else w :: rest'

let rec schedule_all st = function
  | [] -> ()
  | k :: rest ->
      schedule_active st k;
      schedule_all st rest

(* A variable changed: wake its matching edge waiters (dropping the fired
   ones), then schedule its subscribers.  Nothing is allocated when no
   waiter matches. *)
let changed st (v : var) old_cls new_cls =
  (match v.v_waiters with
  | [] -> ()
  | waiters ->
      if wake_matching st (edge_of_classes old_cls new_cls) false waiters then
        v.v_waiters <- drop_fired v.v_waiters);
  schedule_all st v.v_subscribers

(* Assign a new value to a scalar variable, waking edge waiters and
   persistent subscribers when it changes. A store replaces [v_value] only
   on change, so readers may compare values by physical identity. *)
let set_var st (v : var) (value : Packed.t) =
  let value = Packed.resize v.v_width value in
  let old = v.v_value in
  if value != old && not (Packed.equal old value) then begin
    v.v_value <- value;
    changed st v (lsb_class_of old) (lsb_class_of value)
  end

(* [set_var] of a value given as planes (zero-extended to the variable,
   or truncated): on a narrow variable it boxes only on change. *)
let set_var_planes st (v : var) a b =
  match v.v_value with
  | Packed.S s ->
      let m = (1 lsl s.w) - 1 in
      let a = a land m and b = b land m in
      if a <> s.a || b <> s.b then begin
        v.v_value <- Packed.of_planes s.w ~a ~b;
        changed st v (lsb_class s.a s.b) (lsb_class a b)
      end
  | Packed.V _ -> set_var st v (Packed.of_planes Packed.max_packed_width ~a ~b)

let set_array_word st (v : var) idx (value : Packed.t) =
  match v.v_array with
  | None -> invalid_arg "set_array_word: not an array"
  | Some (lo, hi) ->
      if idx >= lo && idx <= hi then (
        let value = Packed.resize v.v_width value in
        if not (Packed.equal v.v_words.(idx - lo) value) then (
          v.v_words.(idx - lo) <- value;
          schedule_all st v.v_subscribers))

let set_array_word_planes st (v : var) idx a b =
  match v.v_array with
  | None -> invalid_arg "set_array_word: not an array"
  | Some (lo, hi) -> (
      if idx >= lo && idx <= hi then
        match v.v_words.(idx - lo) with
        | Packed.S s ->
            let m = (1 lsl s.w) - 1 in
            let a = a land m and b = b land m in
            if a <> s.a || b <> s.b then begin
              v.v_words.(idx - lo) <- Packed.of_planes s.w ~a ~b;
              schedule_all st v.v_subscribers
            end
        | Packed.V _ ->
            set_array_word st v idx (Packed.of_planes Packed.max_packed_width ~a ~b))

(* Apply a store of a value given as planes to its target. *)
let store_planes st target ~lo ~hi a b =
  match target with
  | Tnone -> ()
  | Tvar v -> set_var_planes st v a b
  | Tbits v -> (
      match v.v_value with
      | Packed.S s when lo >= 0 && hi < s.w && lo <= hi ->
          let d = st.scratch in
          Packed.Planes.insert d s.w s.a s.b ~msb:hi ~lsb:lo a b;
          set_var_planes st v d.ca d.cb
      | cur ->
          set_var st v
            (Packed.insert ~into:cur ~msb:hi ~lsb:lo
               (Packed.of_planes Packed.max_packed_width ~a ~b)))
  | Tword v -> set_array_word_planes st v lo a b
  | Tfn f -> f (Packed.of_planes Packed.max_packed_width ~a ~b)

(* Apply a store of a boxed value to its target. *)
let store st target ~lo ~hi value =
  match target with
  | Tnone -> ()
  | Tvar v -> set_var st v value
  | Tbits v -> set_var st v (Packed.insert ~into:v.v_value ~msb:hi ~lsb:lo value)
  | Tword v -> set_array_word st v lo value
  | Tfn f -> f value

(* The target of a concatenated lvalue: [parts] are its resolved parts
   as (width, target, lo, hi), most significant first; a store hands each
   part its slice of the value, resized to the [total] width. *)
let concat_target st parts =
  let total = List.fold_left (fun acc (w, _, _, _) -> acc + w) 0 parts in
  Tfn
    (fun value ->
      let value = Packed.resize total value in
      let rec split hi = function
        | [] -> ()
        | (w, target, lo', hi') :: rest ->
            store st target ~lo:lo' ~hi:hi' (Packed.select value ~msb:hi ~lsb:(hi - w + 1));
            split (hi - w) rest
      in
      split (total - 1) parts)

let get_array_word (v : var) idx =
  match v.v_array with
  | None -> invalid_arg "get_array_word: not an array"
  | Some (lo, hi) ->
      if idx >= lo && idx <= hi then v.v_words.(idx - lo)
      else Packed.all_x v.v_width

(* Trigger a named event: wakes all current waiters (no value change). *)
let trigger_event st (v : var) =
  let woken = v.v_waiters in
  v.v_waiters <- [];
  List.iter
    (fun w ->
      if not !(w.w_fired) then (
        w.w_fired := true;
        schedule_active st w.w_k))
    woken

let note_waiter_var st (v : var) =
  if not v.v_on_waiter_list then begin
    v.v_on_waiter_list <- true;
    st.waiter_vars <- v :: st.waiter_vars
  end

(* Install a reused waiter record at the front of [v]'s list, first
   dropping it from where a purge has not yet removed it. *)
let rec remove_waiter w = function
  | [] -> []
  | x :: rest -> if x == w then rest else x :: remove_waiter w rest

let rearm_waiter st (v : var) w =
  if List.memq w v.v_waiters then v.v_waiters <- remove_waiter w v.v_waiters;
  v.v_waiters <- w :: v.v_waiters;
  note_waiter_var st v

let rec rearm_group st = function
  | [] -> ()
  | (v, w) :: rest ->
      rearm_waiter st v w;
      rearm_group st rest

let add_waiter ?(fired = ref false) st (v : var) edge k =
  v.v_waiters <- { w_edge = edge; w_fired = fired; w_k = k } :: v.v_waiters;
  note_waiter_var st v

(* Drop waiters whose group already fired elsewhere. Only vars that ever
   received a waiter are scanned (the list is stable; vars stay on it),
   and nothing is allocated unless a stale entry actually exists. *)
let purge_waiters st =
  let rec stale = function
    | [] -> false
    | w :: rest -> !(w.w_fired) || stale rest
  in
  List.iter
    (fun v ->
      if stale v.v_waiters then
        v.v_waiters <- List.filter (fun w -> not !(w.w_fired)) v.v_waiters)
    st.waiter_vars
let subscribe (v : var) thunk = v.v_subscribers <- thunk :: v.v_subscribers

(* Map a source-level bit index to a storage index (storage is LSB-first),
   honouring both [7:0] and [0:7] declarations. *)
let storage_index (v : var) (i : int) =
  if v.v_msb >= v.v_lsb then i - v.v_lsb else v.v_lsb - i

(* Profiler region sites for the scheduler, interned once. These are the
   frames of the per-edge cost ledger that tile the run frame
   ([Simulate]): everything a process or compiled node charges nests
   under one of them. *)
let prof_active = Obs.Profile.site "active"
let prof_nba = Obs.Profile.site "nba"
let prof_monitor = Obs.Profile.site "monitor"
let prof_advance = Obs.Profile.site "advance"

(* Run the simulation main loop. The caller has filled time-0 work. *)
let run_loop st =
  (* Latched for the whole loop: Simulate sets [obs_profile] before any
     work is scheduled, so a local avoids re-reading the mutable field in
     the region hot path. *)
  let prof = st.obs_profile in
  let run_thunk thunk = try thunk () with Finish_called -> st.finished <- true in
  let since_purge = ref 0 in
  let drain_active () =
    while st.current.sl_active.count > 0 do
      if st.finished then clear st.current.sl_active
      else (
        if st.obs_enabled then begin
          let depth = st.current.sl_active.count in
          if depth > st.obs_max_queue then st.obs_max_queue <- depth;
          st.obs_active_dispatches <- st.obs_active_dispatches + 1
        end;
        run_thunk (pop st.current.sl_active);
        incr since_purge;
        (* Keep stale waiter groups from pinning fiber stacks inside
           long zero-delay loops. *)
        if !since_purge >= 4096 then (
          since_purge := 0;
          purge_waiters st))
    done
  in
  let exhausted = ref false in
  while not (!exhausted || st.finished) do
    (* Delta loop for the current time: active region, then NBA region. *)
    let settled = ref false in
    while not (!settled || st.finished) do
      if prof then Obs.Profile.enter prof_active;
      drain_active ();
      if prof then Obs.Profile.leave prof_active;
      if st.finished then settled := true
      else begin
        let log = st.current.sl_nba in
        if log.len = 0 then settled := true
        else begin
          if st.obs_enabled then
            st.obs_nba_dispatches <- st.obs_nba_dispatches + log.len;
          if prof then Obs.Profile.enter prof_nba;
          (* Stores only schedule active work, so the log cannot grow
             while it is applied. *)
          for i = 0 to log.len - 1 do
            let e = log.entries.(i) in
            if e.n_planes then store_planes st e.n_target ~lo:e.n_lo ~hi:e.n_hi e.n_a e.n_b
            else store st e.n_target ~lo:e.n_lo ~hi:e.n_hi e.n_value
          done;
          log.len <- 0;
          if prof then Obs.Profile.leave prof_nba
        end
      end
    done;
    (* Monitor region; the end-of-delta waiter purge is charged here too,
       so the profiled regions tile the whole timestep — work between two
       region frames would be charged to the region before it. *)
    if prof then Obs.Profile.enter prof_monitor;
    purge_waiters st;
    if not st.finished then (
      match st.end_of_step_hooks with
      | [] -> ()
      | [ hook ] -> hook st
      | hooks -> List.iter (fun hook -> hook st) (List.rev hooks));
    if prof then Obs.Profile.leave prof_monitor;
    (* Advance time (the per-timestep obs sampling is part of the region:
       same tiling argument as above). *)
    if prof then Obs.Profile.enter prof_advance;
    if st.obs_enabled then begin
      st.obs_timesteps <- st.obs_timesteps + 1;
      (* Detail mode samples the scheduler once per timestep as a Perfetto
         counter track: cumulative dispatch counts plus the number of
         future time slots still pending. *)
      if Obs.Trace.detail () then
        Obs.Trace.counter ~cat:"sim" ~name:"sim.scheduler"
          [
            ("active_dispatches", float_of_int st.obs_active_dispatches);
            ("nba_dispatches", float_of_int st.obs_nba_dispatches);
            ("pending_slots", float_of_int (List.length st.horizon));
          ]
    end;
    (match st.horizon with
    | [] -> exhausted := true
    | s :: rest ->
        if s.sl_time > st.max_time then exhausted := true
        else (
          st.horizon <- rest;
          st.now <- s.sl_time;
          let q = s.sl_active in
          while q.count > 0 do
            push st.current.sl_active (pop q)
          done;
          q.head <- 0;
          (* The current log is empty here: swap it with the slot's. *)
          let log = st.current.sl_nba in
          st.current.sl_nba <- s.sl_nba;
          s.sl_nba <- log;
          st.slot_pool <- s :: st.slot_pool));
    if prof then Obs.Profile.leave prof_advance
  done

let display st text = Buffer.add_string st.display_log text

let find_scope st path = List.find_opt (fun sc -> sc.sc_path = path) st.scopes

let find_var st qualified =
  List.find_opt (fun v -> v.v_name = qualified) st.all_vars
