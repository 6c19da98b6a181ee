(* kbdd: the BDD calculator portal tool as a command-line filter.
   Usage: kbdd [--stats] [--journal FILE] [--metrics-port N] [script-file]
   (stdin when no file is given) *)

let read_input argv =
  match argv with
  | [| _ |] -> In_channel.input_all stdin
  | [| _; path |] -> In_channel.with_open_text path In_channel.input_all
  | _ ->
    prerr_endline "usage: kbdd [--stats] [--journal FILE] [--metrics-port N] [script-file]";
    exit 2

let () =
  let argv = Vc_util.Telemetry.cli Sys.argv in
  let script = read_input argv in
  let out =
    Vc_util.Telemetry.time "kbdd" (fun () ->
        Vc_bdd.Bdd_script.run_script script)
  in
  List.iter print_endline out
