(* A hand-rolled domain pool: a mutex/condition-guarded FIFO of thunks
   drained by [jobs - 1] worker domains plus the domain that called [map].
   Each batch tracks its own completion count, so nested or back-to-back
   [map] calls share one queue without interfering. *)

type t = {
  jobs : int;
  m : Mutex.t;
  work : Condition.t; (* signaled when tasks are enqueued or on shutdown *)
  finished : Condition.t; (* signaled when some batch completes *)
  tasks : (unit -> unit) Queue.t;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let size t = max 1 t.jobs

let site_worker = Obs.Profile.site ~span:"pool" "pool.worker"
let site_task = Obs.Profile.site ~span:"pool" "pool.task"

(* Waiting for the lock and for work is idle time, not run time. *)
let site_idle = Obs.Profile.site ~idle:true "pool.idle"

(* Worker loop: claim a task, run it unlocked, repeat. Tasks never raise:
   [map] wraps user code and stores exceptions in the batch's error slots. *)
let rec worker_loop (t : t) =
  let on = Obs.Profile.enabled () in
  if on then Obs.Profile.enter site_idle;
  Mutex.lock t.m;
  while Queue.is_empty t.tasks && not t.stop do
    Condition.wait t.work t.m
  done;
  let next = Queue.take_opt t.tasks in
  Mutex.unlock t.m;
  if on then Obs.Profile.leave site_idle;
  match next with
  | Some task ->
      task ();
      worker_loop t
  | None -> (* stop was set and the queue is drained *) ()

let create ~jobs : t =
  let t =
    {
      jobs;
      m = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      tasks = Queue.create ();
      stop = false;
      workers = [];
    }
  in
  t.workers <-
    List.init
      (max 0 (jobs - 1))
      (fun _ ->
        Domain.spawn (fun () ->
            (* A worker's whole lifetime is one frame on its track, with
               the tasks it ran nested inside. *)
            let on = Obs.Profile.recording () in
            if on then Obs.Profile.enter site_worker;
            worker_loop t;
            if on then Obs.Profile.leave site_worker));
  t

let shutdown (t : t) =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.m;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let map (t : t) (f : 'a -> 'b) (xs : 'a array) : 'b array =
  let n = Array.length xs in
  if n = 0 then [||]
  else if t.jobs <= 1 || t.stop || n = 1 then Array.map f xs
  else begin
    let results : 'b option array = Array.make n None in
    let errors : exn option array = Array.make n None in
    let remaining = ref n in
    if Obs.Metrics.enabled () then
      Obs.Metrics.add (Obs.Metrics.counter "pool.tasks") n;
    Mutex.lock t.m;
    for i = 0 to n - 1 do
      Queue.add
        (fun () ->
          let on = Obs.Profile.recording () in
          if on then Obs.Profile.enter site_task;
          (try results.(i) <- Some (f xs.(i)) with e -> errors.(i) <- Some e);
          (* Reporting completion is part of the task's frame, so a
             worker's time is either a task or idle. *)
          Mutex.lock t.m;
          decr remaining;
          if !remaining = 0 then Condition.broadcast t.finished;
          Mutex.unlock t.m;
          if on then Obs.Profile.leave site_task)
        t.tasks
    done;
    Condition.broadcast t.work;
    (* The calling domain drains the queue alongside the workers. It may
       execute tasks of an enclosing batch here; that is fine, every task
       decrements its own batch counter. *)
    let rec drain () =
      match Queue.take_opt t.tasks with
      | Some task ->
          Mutex.unlock t.m;
          task ();
          Mutex.lock t.m;
          drain ()
      | None -> ()
    in
    drain ();
    while !remaining > 0 do
      Condition.wait t.finished t.m
    done;
    Mutex.unlock t.m;
    (* Deterministic propagation: the exception of the lowest index wins. *)
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_list (t : t) (f : 'a -> 'b) (xs : 'a list) : 'b list =
  Array.to_list (map t f (Array.of_list xs))
