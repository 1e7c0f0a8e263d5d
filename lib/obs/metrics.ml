(* Process-global metrics registry: named counters and log-scale
   histograms, dumpable as JSON and as a one-line human summary.

   Instruments register eagerly at module load (registration is cheap and
   an unused metric dumps as zero); recording is guarded by the global
   [enabled] flag, which instrumented call sites branch on — the disabled
   cost of a metric is one boolean load, never an allocation. Counters and
   histogram buckets are [Atomic.t] so worker domains can record
   concurrently without a lock. *)

type counter = { c_name : string; c : int Atomic.t }

(* Log2 bucketing: observation 0 lands in bucket 0; a positive value v
   lands in the bucket whose index is the bit length of v, i.e. bucket k
   spans [2^(k-1), 2^k). 64 buckets cover the whole of [0, max_int].
   Negative observations are rejected into their own count rather than
   silently clamped. *)
type histogram = {
  h_name : string;
  buckets : int Atomic.t array; (* 64 entries, indexed by bit length *)
  h_count : int Atomic.t;
  h_sum : int Atomic.t;
  h_rejected : int Atomic.t; (* negative observations *)
}

let enabled_flag = ref false
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let reg_m = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let with_reg f =
  Mutex.lock reg_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_m) f

let counter (name : string) : counter =
  with_reg (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c = Atomic.make 0 } in
          Hashtbl.add counters name c;
          c)

let histogram (name : string) : histogram =
  with_reg (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
          let h =
            {
              h_name = name;
              buckets = Array.init 64 (fun _ -> Atomic.make 0);
              h_count = Atomic.make 0;
              h_sum = Atomic.make 0;
              h_rejected = Atomic.make 0;
            }
          in
          Hashtbl.add histograms name h;
          h)

let incr (c : counter) = Atomic.incr c.c
let add (c : counter) (n : int) = ignore (Atomic.fetch_and_add c.c n)
let value (c : counter) = Atomic.get c.c

let bucket_of (v : int) : int =
  (* Bit length of a non-negative value; 0 -> 0, max_int -> 62. *)
  let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
  bits v 0

let observe (h : histogram) (v : int) =
  if v < 0 then Atomic.incr h.h_rejected
  else (
    Atomic.incr h.buckets.(bucket_of v);
    Atomic.incr h.h_count;
    ignore (Atomic.fetch_and_add h.h_sum v))

(* Lower bound of bucket [i]: the smallest value that lands there. *)
let bucket_floor (i : int) : int = if i = 0 then 0 else 1 lsl (i - 1)

let sorted_fold tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let dump () : Json.t =
  with_reg (fun () ->
      let counters_j =
        sorted_fold counters
        |> List.map (fun (name, c) -> (name, Json.Int (Atomic.get c.c)))
      in
      let histograms_j =
        sorted_fold histograms
        |> List.map (fun (name, h) ->
               let buckets =
                 Array.to_list h.buckets
                 |> List.mapi (fun i b -> (i, Atomic.get b))
                 |> List.filter (fun (_, n) -> n > 0)
                 |> List.map (fun (i, n) ->
                        (string_of_int (bucket_floor i), Json.Int n))
               in
               ( name,
                 Json.Obj
                   [
                     ("count", Json.Int (Atomic.get h.h_count));
                     ("sum", Json.Int (Atomic.get h.h_sum));
                     ("rejected", Json.Int (Atomic.get h.h_rejected));
                     ("buckets", Json.Obj buckets);
                   ] ))
      in
      Json.Obj
        [
          ("counters", Json.Obj counters_j);
          ("histograms", Json.Obj histograms_j);
        ])

let dump_string () : string = Json.to_string (dump ())

(* One-line human summary: every non-zero counter, then each non-empty
   histogram as name{n,mean}. *)
let summary () : string =
  with_reg (fun () ->
      let cs =
        sorted_fold counters
        |> List.filter_map (fun (name, c) ->
               let v = Atomic.get c.c in
               if v = 0 then None else Some (Printf.sprintf "%s=%d" name v))
      in
      let hs =
        sorted_fold histograms
        |> List.filter_map (fun (name, h) ->
               let n = Atomic.get h.h_count in
               if n = 0 then None
               else
                 Some
                   (Printf.sprintf "%s{n=%d mean=%.1f}" name n
                      (float_of_int (Atomic.get h.h_sum) /. float_of_int n)))
      in
      match cs @ hs with
      | [] -> "metrics: (empty)"
      | parts -> "metrics: " ^ String.concat " " parts)

let reset () =
  with_reg (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c 0) counters;
      Hashtbl.iter
        (fun _ h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.h_count 0;
          Atomic.set h.h_sum 0;
          Atomic.set h.h_rejected 0)
        histograms)
