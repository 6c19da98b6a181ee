(* axb: the linear-system portal tool.
   Usage: axb [--stats] [--journal FILE] [--metrics-port N] [system-file] *)

let () =
  let argv = Vc_util.Telemetry.cli Sys.argv in
  let text =
    match argv with
    | [| _ |] -> In_channel.input_all stdin
    | [| _; path |] -> In_channel.with_open_text path In_channel.input_all
    | _ ->
      prerr_endline "usage: axb [--stats] [--journal FILE] [--metrics-port N] [system-file]";
      exit 2
  in
  print_endline (Vc_util.Telemetry.time "axb" (fun () -> Vc_linalg.Axb.run text))
