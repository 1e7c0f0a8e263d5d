(* The compiled backend's schedule of a design as one line of text, for
   the sweeps that compare schedules (deps_golden_run, sim_equiv_run):
   the statistics, the time-0 order, the dynamic order and the external
   inputs, or why the compiler falls back or elaboration fails. *)

let compiled elab =
  match Sim.Compile.compile elab with
  | art -> Ok art
  | exception Sim.Compile.Fallback reason -> Error reason

let describe = function
  | Error reason -> "fallback: " ^ reason
  | Ok (art : Sim.Compile.artifact) ->
      let nodes a =
        Array.to_list a
        |> List.concat_map (fun (nd : Sim.Compile.node) -> nd.n_names)
        |> String.concat " "
      in
      let s = art.a_stats in
      Printf.sprintf
        "nodes %d const %d dead %d levels %d t0 [%s] dynamic [%s] inputs [%s]"
        s.c_nodes s.c_const s.c_dead s.c_levels (nodes art.a_t0)
        (nodes art.a_dynamic)
        (Array.to_list art.a_inputs
        |> List.map (fun (v : Sim.Runtime.var) -> v.v_name)
        |> String.concat " ")

(* The schedule of [design] under [top], built in full. *)
let of_design ?max_steps ?max_time design ~top =
  match Sim.Elaborate.elaborate ?max_steps ?max_time design ~top with
  | elab -> describe (compiled elab)
  | exception Sim.Runtime.Elab_error e -> "elab-error: " ^ e
