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
  mutable v_value : Vec.t;
  mutable v_words : Vec.t array; (* only when v_array is Some *)
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

(* A time slot's pending work. *)
type slot = {
  sl_active : (unit -> unit) Queue.t;
  mutable sl_nba : (unit -> unit) list; (* NBA updates, applied in order *)
}

type state = {
  mutable now : int;
  mutable finished : bool;
  (* Future work as a sorted association list of distinct pending times.
     The list is almost always a handful of entries (the next clock edge,
     a pending NBA commit, a stimulus timeout), so ordered insertion beats
     a hash table plus a separately maintained sorted key list, and time
     advance is a head pop. *)
  mutable horizon : (int * slot) list;
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
}

let create ?(max_steps = 2_000_000) ?(max_time = 1_000_000) () =
  {
    now = 0;
    finished = false;
    horizon = [];
    current = { sl_active = Queue.create (); sl_nba = [] };
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

let slot_at st t =
  let fresh () =
    match st.slot_pool with
    | s :: rest ->
        st.slot_pool <- rest;
        s
    | [] -> { sl_active = Queue.create (); sl_nba = [] }
  in
  (* Find-or-insert in the sorted horizon; the common cases are an exact
     hit on the first entries or an append at/near the head. *)
  let rec go l =
    match l with
    | ((x, s) :: _) when x = t -> (s, l)
    | ((x, _) :: _) when x > t ->
        let s = fresh () in
        (s, (t, s) :: l)
    | entry :: rest ->
        let s, rest' = go rest in
        (s, entry :: rest')
    | [] ->
        let s = fresh () in
        (s, [ (t, s) ])
  in
  let s, h = go st.horizon in
  st.horizon <- h;
  s

let schedule_active st thunk = Queue.push thunk st.current.sl_active

let schedule_at st ~time thunk =
  if time = st.now then schedule_active st thunk
  else if time > st.now then Queue.push thunk (slot_at st time).sl_active
  else invalid_arg "schedule_at: past time"

(* NBA thunks are prepended (O(1)) and reversed at flush time, preserving
   application order without quadratic list append. *)
let schedule_nba st ~time thunk =
  if time = st.now then st.current.sl_nba <- thunk :: st.current.sl_nba
  else (
    let s = slot_at st time in
    s.sl_nba <- thunk :: s.sl_nba)

(* Edge classification per IEEE 1364: for vectors the LSB is considered.
   posedge: 0->1, 0->x/z, x/z->1; negedge dual. *)
let edge_of_transition (old_b : Bit.t) (new_b : Bit.t) : edge option =
  let cls = function Bit.V0 -> `L | Bit.V1 -> `H | Bit.X | Bit.Z -> `U in
  match (cls old_b, cls new_b) with
  | `L, `H | `L, `U | `U, `H -> Some Pos
  | `H, `L | `H, `U | `U, `L -> Some Neg
  | `L, `L | `H, `H | `U, `U -> None

(* Assign a new value to a scalar variable, waking edge waiters and
   persistent subscribers when it changes. *)
let set_var st (v : var) (value : Vec.t) =
  let value = Vec.resize v.v_width value in
  if not (Vec.equal v.v_value value) then (
    let old_lsb = Vec.get v.v_value 0 in
    v.v_value <- value;
    (match v.v_waiters with
    | [] -> ()
    | waiters ->
        let new_lsb = Vec.get value 0 in
        let fired_edge = edge_of_transition old_lsb new_lsb in
        let matches w =
          (not !(w.w_fired))
          &&
          match (w.w_edge, fired_edge) with
          | Any, _ -> true
          | Pos, Some Pos | Neg, Some Neg -> true
          | _ -> false
        in
        let woken, still = List.partition matches waiters in
        v.v_waiters <- List.filter (fun w -> not !(w.w_fired)) still;
        List.iter
          (fun w ->
            (* Re-check: two entries of one group can sit on the same
               signal (e.g. @(load_en or posedge load_en)) and both pass
               the partition before either sets the shared flag. *)
            if not !(w.w_fired) then (
              w.w_fired := true;
              schedule_active st w.w_k))
          woken);
    List.iter (fun s -> schedule_active st s) v.v_subscribers)

let set_array_word st (v : var) idx (value : Vec.t) =
  match v.v_array with
  | None -> invalid_arg "set_array_word: not an array"
  | Some (lo, hi) ->
      if idx >= lo && idx <= hi then (
        let value = Vec.resize v.v_width value in
        if not (Vec.equal v.v_words.(idx - lo) value) then (
          v.v_words.(idx - lo) <- value;
          List.iter (fun s -> schedule_active st s) v.v_subscribers))

let get_array_word (v : var) idx =
  match v.v_array with
  | None -> invalid_arg "get_array_word: not an array"
  | Some (lo, hi) ->
      if idx >= lo && idx <= hi then v.v_words.(idx - lo)
      else Vec.all_x v.v_width

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

let add_waiter ?(fired = ref false) st (v : var) edge k =
  v.v_waiters <- { w_edge = edge; w_fired = fired; w_k = k } :: v.v_waiters;
  if not v.v_on_waiter_list then begin
    v.v_on_waiter_list <- true;
    st.waiter_vars <- v :: st.waiter_vars
  end

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
   top-level frames of the per-edge cost ledger: everything a process or
   compiled node charges nests under one of them. *)
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
    while not (Queue.is_empty st.current.sl_active) do
      if st.finished then Queue.clear st.current.sl_active
      else (
        if st.obs_enabled then begin
          let depth = Queue.length st.current.sl_active in
          if depth > st.obs_max_queue then st.obs_max_queue <- depth;
          st.obs_active_dispatches <- st.obs_active_dispatches + 1
        end;
        run_thunk (Queue.pop st.current.sl_active);
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
      else (
        match st.current.sl_nba with
        | [] -> settled := true
        | nbas ->
            if st.obs_enabled then
              st.obs_nba_dispatches <-
                st.obs_nba_dispatches + List.length nbas;
            st.current.sl_nba <- [];
            if prof then Obs.Profile.enter prof_nba;
            List.iter run_thunk (List.rev nbas);
            if prof then Obs.Profile.leave prof_nba)
    done;
    (* Monitor region; the end-of-delta waiter purge is charged here too,
       so the profiled regions tile the whole timestep — any gap between
       top-level frames is dropped time the ledger cannot account for. *)
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
    | (t, s) :: rest ->
        if t > st.max_time then exhausted := true
        else (
          st.horizon <- rest;
          st.now <- t;
          Queue.transfer s.sl_active st.current.sl_active;
          st.current.sl_nba <- s.sl_nba;
          s.sl_nba <- [];
          st.slot_pool <- s :: st.slot_pool));
    if prof then Obs.Profile.leave prof_advance
  done

let display st text = Buffer.add_string st.display_log text

let find_scope st path = List.find_opt (fun sc -> sc.sc_path = path) st.scopes

let find_var st qualified =
  List.find_opt (fun v -> v.v_name = qualified) st.all_vars
