(* Host-speed probe. The machines this benchmark runs on share cores with
   other tenants, and their speed drifts by up to 60% over minutes: far
   more than any run can average away, and more than a change under test
   should be judged against. So every pass also times this probe, and the
   gated times are rescaled to the host speed at which the probe takes
   [nominal] seconds. A change to the program moves the rescaled times; a
   slower host moves the probe too and cancels out. The report prints the
   raw times beside them.

   The probe is allocation-, hashing- and sort-heavy like the repair loop,
   so host contention slows both alike, but it shares no code with the
   program under test. It runs after a full major collection, so the
   garbage a job leaves behind cannot change its speed: only the host can.
   The same collection gives every job a clean heap to start from. *)

module IM = Map.Make (Int)

(* Probe duration that defines the reference host speed. *)
let nominal = 0.010

let work () =
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let m = ref IM.empty in
  for i = 0 to 19_999 do
    m := IM.add (next ()) i !m
  done;
  let l = List.sort compare (IM.fold (fun k v acc -> (k lxor v) :: acc) !m []) in
  let h = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace h (string_of_int (x land 0xffff)) x) l;
  Hashtbl.length h

(* Seconds one probe took, after a full major collection (untimed). *)
let probe () : float =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0
