(* Command line and fixture comparison shared by the golden drivers.

   A driver prints a prefix of its full output by default and all of it
   under --all. With --expect FILE, the output must equal FILE (--all) or
   be a prefix of it (default), else the run fails naming the first
   differing line; only a one-line summary is printed then. *)

let all () = Array.exists (String.equal "--all") Sys.argv

let expect () =
  let rec find i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = "--expect" then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

(* Print [out], or check it against the --expect file; [name] labels the
   summary line. *)
let finish ~name out =
  match expect () with
  | None -> print_string out
  | Some file ->
      let want = In_channel.with_open_bin file In_channel.input_all in
      let ok =
        if all () then String.equal out want
        else
          String.length out <= String.length want
          && String.equal out (String.sub want 0 (String.length out))
      in
      if not ok then begin
        let got_l = String.split_on_char '\n' out
        and want_l = String.split_on_char '\n' want in
        let rec first i = function
          | g :: gs, w :: ws -> if g = w then first (i + 1) (gs, ws) else (i, g, w)
          | g :: _, [] -> (i, g, "<end of file>")
          | [], _ -> (i, "<end of output>", "")
        in
        let i, g, w = first 1 (got_l, want_l) in
        Printf.eprintf "%s: line %d differs from %s\n  got:  %s\n  want: %s\n"
          name i file g w;
        exit 1
      end
      else
        Printf.printf "%s: %d lines match %s\n" name
          (List.length (String.split_on_char '\n' out) - 1)
          file
